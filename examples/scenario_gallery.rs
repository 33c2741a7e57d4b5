//! Prints an ASCII gallery of every procedural scenario family at three
//! difficulty levels, with the computed difficulty score, obstacle
//! count, and environment profile for each world — a quick visual check
//! that the generators produce what their names promise.
//!
//! Run with: `cargo run --release --example scenario_gallery [--seed S]`
//!
//! `S` for `s`tart, `G` for `g`oal, `#` static obstacles, `o` moving
//! obstacles (drawn at their inflated footprint), `.` free space. The
//! gallery also demonstrates the scenario DSL by round-tripping one
//! world through `render_scenario`/`parse_scenario`.

use magseven::scen::{generate, parse_scenario, render_scenario, Family};
use magseven::trace::flag_value;

fn usage() -> ! {
    eprintln!("usage: scenario_gallery [--seed S]");
    std::process::exit(2);
}

fn main() {
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => seed = flag_value(&mut args, "--seed", "an integer"),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }

    for family in Family::ALL {
        for level in [0.2, 0.5, 0.8] {
            let s = generate(family, level, seed);
            println!(
                "=== {family} @ level {level} — difficulty {:.3}, {} obstacles ===",
                s.difficulty(),
                s.obstacle_count()
            );
            println!(
                "gusts {:.2}, payload {:.0} g, sensor derate {:.2}",
                s.gust_std, s.payload_grams, s.sensor_derate
            );
            println!("{}", s.ascii_art(72, 24));
        }
    }

    // DSL round-trip demo: one world out to text and back, bit-exact.
    let sample = generate(Family::UrbanCanyon, 0.5, seed);
    let text = render_scenario(&sample);
    let back = parse_scenario(&text).expect("rendered scenario parses");
    assert_eq!(back, sample, "DSL round-trip must be exact");
    println!(
        "DSL round-trip OK: {} rendered to {} bytes and parsed back",
        sample.family,
        text.len()
    );
}
