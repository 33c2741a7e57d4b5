//! Motion planning showcase: RRT, RRT*, and PRM on a warehouse floor,
//! plus the scalar-vs-batched collision-checking wall-clock comparison
//! behind the paper's Challenge 5.
//!
//! Run with: `cargo run --release --example motion_planning`

use magseven::kernels::{Prm, PrmConfig, RrtStar};
use magseven::prelude::*;
use std::time::Instant;

fn main() {
    // A warehouse: two shelving walls and scattered pallets.
    let mut world = CollisionWorld::new(40.0, 40.0);
    world.add_rect(Vec2::new(12.0, 0.0), Vec2::new(14.0, 30.0));
    world.add_rect(Vec2::new(26.0, 10.0), Vec2::new(28.0, 40.0));
    world.scatter_circles(40, 0.3, 1.2, 99);
    let start = Vec2::new(2.0, 2.0);
    let goal = Vec2::new(38.0, 38.0);

    // Single-query planners.
    for (name, path) in [
        ("RRT", Rrt::new(RrtConfig::default(), 1).plan(&world, start, goal)),
        ("RRT*", RrtStar::new(RrtConfig::default(), 1).plan(&world, start, goal)),
    ] {
        match path {
            Some(p) => {
                let s = p.shortcut(&world);
                println!(
                    "{name:<5} {:>6.1} m raw, {:>6.1} m smoothed, {} waypoints",
                    p.length(),
                    s.length(),
                    p.waypoints().len()
                );
            }
            None => println!("{name:<5} found no path"),
        }
    }

    // Multi-query: build a roadmap once, answer many queries.
    let config = PrmConfig { samples: 1200, connection_radius: 3.0, max_neighbors: 12 };
    let t = Instant::now();
    let prm = Prm::build(&world, config, 1);
    let scalar_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let _prm_batched = Prm::build_batched(&world, config, 1);
    let batched_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "\nPRM: {} vertices, {} edges, {} edge checks",
        prm.len(),
        prm.edge_count(),
        prm.edge_checks()
    );
    println!(
        "roadmap construction: scalar {scalar_ms:.1} ms vs batched {batched_ms:.1} ms \
         ({:.1}x from layout + batching alone)",
        scalar_ms / batched_ms
    );

    let queries = [
        (Vec2::new(2.0, 38.0), Vec2::new(38.0, 2.0)),
        (Vec2::new(20.0, 2.0), Vec2::new(20.0, 38.0)),
        (start, goal),
    ];
    println!("\nroadmap queries:");
    for (a, b) in queries {
        match prm.query(&world, a, b) {
            Some(p) => println!(
                "  ({:.0},{:.0}) -> ({:.0},{:.0}): {:.1} m",
                a.x,
                a.y,
                b.x,
                b.y,
                p.length()
            ),
            None => println!("  ({:.0},{:.0}) -> ({:.0},{:.0}): unreachable", a.x, a.y, b.x, b.y),
        }
    }
}
