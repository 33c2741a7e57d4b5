//! Ground-rover patrol with the real motion planner in the loop: every
//! leg is planned by RRT, tracked by pure pursuit, and both the waiting
//! time and the energy of planning are charged to the mission.
//!
//! Run with: `cargo run --release --example rover_patrol`

use magseven::kernels::{CollisionWorld, Vec2};
use magseven::sim::uav::ComputeTier;
use magseven::sim::{Rover, RoverConfig};

fn main() {
    // A farm yard: two long barns and scattered equipment.
    let mut world = CollisionWorld::new(50.0, 50.0);
    world.add_rect(Vec2::new(10.0, 10.0), Vec2::new(35.0, 14.0));
    world.add_rect(Vec2::new(15.0, 30.0), Vec2::new(40.0, 34.0));
    world.scatter_circles(25, 0.4, 1.3, 2024);

    let goals =
        [Vec2::new(45.0, 5.0), Vec2::new(45.0, 45.0), Vec2::new(5.0, 45.0), Vec2::new(5.0, 22.0)];
    println!("patrol: 4 goals across a 50x50 m yard\n");
    println!(
        "{:<14} {:>7} {:>9} {:>11} {:>10} {:>9}",
        "tier", "goals", "time s", "plan-wait %", "energy kJ", "dist m"
    );
    for tier in ComputeTier::ALL {
        let rover = Rover::new(RoverConfig { tier, ..RoverConfig::default() });
        let out = rover.patrol(&world, Vec2::new(2.0, 2.0), &goals, 7);
        println!(
            "{:<14} {:>5}/4 {:>9.0} {:>11.1} {:>10.1} {:>9.0}",
            tier.to_string(),
            out.goals_reached,
            out.time.value(),
            out.planning_fraction() * 100.0,
            out.energy.value() / 1e3,
            out.distance.value()
        );
    }
    println!(
        "\nweak compute stalls the rover at every leg (plan-wait %); strong compute \
         wastes battery — the ground-vehicle version of the E5 trade-off"
    );
}
