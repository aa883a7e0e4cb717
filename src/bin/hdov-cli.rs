//! `hdov-cli` — explore the HDoV-tree from the command line.
//!
//! ```text
//! hdov-cli info       [--size tiny|small|paper] [--seed N] [--project F]
//! hdov-cli query      [--size ...] [--seed N] [--eta F] [--x F --y F] [--scheme h|v|iv] [--project F]
//! hdov-cli walk       [--size ...] [--seed N] [--eta F] [--frames N] [--kind normal|turning|backforth] [--project F]
//! hdov-cli schemes    [--size ...] [--seed N]
//! hdov-cli precompute --out FILE [--size ...] [--seed N] [--rays N]
//! ```
//!
//! `precompute` runs the expensive offline DoV estimation once and saves a
//! project file; passing `--project FILE` to the other commands reuses it.
//!
//! Everything is seeded and deterministic; sizes map to the built-in city
//! presets (`paper` is the full evaluation scene and takes a while to build).
//! A flag value that does not parse, or names no known size, scheme or
//! session kind, is an `error:` line and exit status 1 — never a silent
//! default.

use hdov::prelude::*;
use hdov::walkthrough::{run_session, FrameModel};
use std::collections::HashMap;
use std::str::FromStr;

/// Any command failure: a storage error or a bad flag value.
type CliResult<T> = Result<T, Box<dyn std::error::Error>>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage();
        std::process::exit(2);
    };
    let opts = parse_flags(&args[1..]);
    let result = match command.as_str() {
        "info" => cmd_info(&opts),
        "query" => cmd_query(&opts),
        "walk" => cmd_walk(&opts),
        "schemes" => cmd_schemes(&opts),
        "precompute" => cmd_precompute(&opts),
        "dump" => cmd_dump(&opts),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => {
            eprintln!("unknown command: {other}\n");
            usage();
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage() {
    eprintln!(
        "hdov-cli — explore the HDoV-tree (ICDE 2003 reproduction)\n\n\
         commands:\n\
         \x20 info     scene and index statistics\n\
         \x20 query    one visibility query (--eta, --x/--y viewpoint)\n\
         \x20 walk     play a walkthrough session (--kind, --frames, --eta, --budget MS)\n\
         \x20 dump     print the instantiated tree of a cell (--x/--y)\n\
         \x20 schemes     compare the three storage schemes\n\
         \x20 precompute  run the offline DoV step and save a project (--out FILE)\n\n\
         common flags: --size tiny|small|paper  --seed N  --scheme h|v|iv  --project FILE"
    );
}

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Flags {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            map.insert(key.to_string(), value);
            i += 2;
        } else {
            eprintln!("ignoring stray argument: {}", args[i]);
            i += 1;
        }
    }
    map
}

/// `--key` parsed as a `T`, if given.
fn opt_flag<T: FromStr>(opts: &Flags, key: &str) -> CliResult<Option<T>> {
    opts.get(key)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid --{key} {v:?}").into())
        })
        .transpose()
}

/// `--key` parsed as a `T`, or `default` when absent.
fn flag<T: FromStr>(opts: &Flags, key: &str, default: T) -> CliResult<T> {
    Ok(opt_flag(opts, key)?.unwrap_or(default))
}

/// The seeded city preset named by `--size` (default small).
fn city_for(opts: &Flags) -> CliResult<CityConfig> {
    let cfg = match opts.get("size").map(String::as_str) {
        Some("tiny") => CityConfig::tiny(),
        None | Some("small") => CityConfig::small(),
        Some("paper") => CityConfig::default_paper(),
        Some(other) => {
            return Err(format!("unknown --size {other:?}; use tiny, small or paper").into())
        }
    };
    Ok(cfg.seed(flag(opts, "seed", 7)?))
}

fn scheme_for(opts: &Flags) -> CliResult<StorageScheme> {
    match opts.get("scheme").map(String::as_str) {
        Some("h") | Some("horizontal") => Ok(StorageScheme::Horizontal),
        Some("v") | Some("vertical") => Ok(StorageScheme::Vertical),
        None | Some("iv") | Some("indexed") | Some("indexed-vertical") => {
            Ok(StorageScheme::IndexedVertical)
        }
        Some(other) => Err(format!("unknown --scheme {other:?}; use h, v or iv").into()),
    }
}

/// Scene + environment, either freshly computed or loaded from a project.
fn scene_and_env(opts: &Flags) -> CliResult<(Scene, HdovEnvironment)> {
    let scheme = scheme_for(opts)?;
    if let Some(path) = opts.get("project") {
        let project =
            hdov::project::Project::load(path).map_err(hdov::storage::StorageError::Io)?;
        let scene = project.scene();
        let env = project.environment(HdovBuildConfig::default(), scheme)?;
        return Ok((scene, env));
    }
    let scene = city_for(opts)?.generate();
    let res = if scene.len() > 1000 { (16, 16) } else { (8, 8) };
    let cells = CellGridConfig::for_scene(&scene).with_resolution(res.0, res.1);
    let env = HdovEnvironment::build(&scene, &cells, HdovBuildConfig::default(), scheme)?;
    Ok((scene, env))
}

fn cmd_precompute(opts: &Flags) -> CliResult<()> {
    let Some(out) = opts.get("out") else {
        eprintln!("precompute requires --out FILE");
        std::process::exit(2);
    };
    let city = city_for(opts)?;
    let rays: usize = flag(opts, "rays", 4096)?;
    if rays == 0 {
        return Err(
            "--rays must be positive: a table estimated from 0 rays cannot be loaded".into(),
        );
    }
    let grid = if city.slot_count() > 1000 {
        (16, 16)
    } else {
        (8, 8)
    };
    let dov = hdov::visibility::DovConfig {
        rays_per_viewpoint: rays,
        viewpoints_per_cell: 5,
        seed: flag(opts, "seed", 7)?,
    };
    let start = std::time::Instant::now();
    let project = hdov::project::Project::create(city, grid, &dov, 0);
    project.save(out).map_err(hdov::storage::StorageError::Io)?;
    println!(
        "precomputed {} cells ({} rays/viewpoint) in {:.2}s -> {out}",
        project.table.cell_count(),
        rays,
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

fn cmd_dump(opts: &Flags) -> CliResult<()> {
    let (scene, mut env) = scene_and_env(opts)?;
    let c = scene.viewpoint_region().center();
    let vp = Vec3::new(flag(opts, "x", c.x)?, flag(opts, "y", c.y)?, c.z);
    let cell = env.cell_of(vp);
    print!("{}", env.dump_cell(cell)?);
    Ok(())
}

fn cmd_info(opts: &Flags) -> CliResult<()> {
    let (scene, env) = scene_and_env(opts)?;
    println!("scene");
    println!("  objects            {}", scene.len());
    println!("  full-detail polys  {}", scene.total_polygons());
    println!("  model bytes        {}", scene.total_model_bytes());
    println!("  bounds             {:?}", scene.bounds());
    println!("hdov-tree ({})", env.scheme());
    println!("  nodes              {}", env.tree().node_count());
    println!("  height             {}", env.tree().height());
    println!("  cells              {}", env.grid().cell_count());
    println!("  v-store bytes      {}", env.vstore().storage_bytes());
    println!(
        "  internal LoD bytes {}",
        env.tree().internal_store().total_bytes()
    );
    Ok(())
}

fn cmd_query(opts: &Flags) -> CliResult<()> {
    let eta = flag(opts, "eta", 0.001)?;
    let (scene, mut env) = scene_and_env(opts)?;
    let c = scene.viewpoint_region().center();
    let vp = Vec3::new(flag(opts, "x", c.x)?, flag(opts, "y", c.y)?, c.z);
    let (result, stats) = env.query(Query::new(env.cell_of(vp), eta))?;
    println!(
        "query at ({:.1}, {:.1}) cell {} eta {eta}",
        vp.x,
        vp.y,
        env.cell_of(vp)
    );
    println!(
        "  {} objects + {} internal LoDs, {} polygons, {} bytes",
        result.object_count(),
        result.internal_count(),
        result.total_polygons(),
        result.total_bytes()
    );
    println!(
        "  I/O: {} light + {} heavy pages, simulated {:.2} ms",
        stats.light_io().page_reads,
        stats.heavy_io().page_reads,
        stats.search_time_ms()
    );
    let mut entries = result.entries().to_vec();
    entries.sort_by(|a, b| b.dov.partial_cmp(&a.dov).unwrap());
    println!("  top entries by DoV:");
    for e in entries.iter().take(8) {
        println!(
            "    {:?} level {} dov {:.5} ({} polys)",
            e.key, e.level, e.dov, e.polygons
        );
    }
    Ok(())
}

fn cmd_walk(opts: &Flags) -> CliResult<()> {
    let eta = flag(opts, "eta", 0.001)?;
    let frames: usize = flag(opts, "frames", 120)?;
    let kind = match opts.get("kind").map(String::as_str) {
        None | Some("normal") => SessionKind::Normal,
        Some("turning") => SessionKind::Turning,
        Some("backforth") | Some("back-forth") => SessionKind::BackForth,
        Some(other) => {
            return Err(
                format!("unknown --kind {other:?}; use normal, turning or backforth").into(),
            )
        }
    };
    let budget: Option<f64> = opt_flag(opts, "budget")?;
    let (scene, env) = scene_and_env(opts)?;
    let session = Session::record(
        scene.viewpoint_region(),
        kind,
        frames,
        flag(opts, "seed", 7)?,
    );
    // --budget <ms> switches to the streaming (frame-budgeted) mode.
    let m = if let Some(budget) = budget {
        let mut sys = hdov::walkthrough::StreamingVisualSystem::new(env, eta, budget)?;
        let m = run_session(&mut sys, &session, &FrameModel::PAPER_ERA)?;
        println!(
            "streaming: {} of {} frames budget-truncated",
            sys.truncated_frames(),
            frames
        );
        m
    } else {
        let mut visual = VisualSystem::new(env, eta)?;
        run_session(&mut visual, &session, &FrameModel::PAPER_ERA)?
    };
    println!("{} over {} ({} frames)", m.system, kind.label(), frames);
    println!("  avg frame        {:.2} ms", m.avg_frame_time_ms());
    println!("  frame variance   {:.2}", m.variance_frame_time());
    println!("  p95 frame        {:.2} ms", m.frame_time_percentile(95.0));
    println!("  max spike        {:.2} ms", m.max_frame_time_ms());
    println!("  avg search       {:.2} ms", m.avg_search_time_ms());
    println!("  avg page reads   {:.1}", m.avg_page_reads());
    println!("  avg polygons     {:.0}", m.avg_polygons());
    println!("  DoV coverage     {:.4}", m.avg_dov_coverage());
    println!("  peak memory      {} bytes", m.peak_memory_bytes);
    Ok(())
}

fn cmd_schemes(opts: &Flags) -> CliResult<()> {
    let scene = city_for(opts)?.generate();
    let vp = scene.viewpoint_region().center();
    println!(
        "{:<18} {:>14} {:>12} {:>12}",
        "scheme", "storage (B)", "light I/O", "search ms"
    );
    for scheme in StorageScheme::all() {
        let res = if scene.len() > 1000 { (16, 16) } else { (8, 8) };
        let cells = CellGridConfig::for_scene(&scene).with_resolution(res.0, res.1);
        let mut env = HdovEnvironment::build(&scene, &cells, HdovBuildConfig::default(), scheme)?;
        let (_, stats) = env.query(Query::new(env.cell_of(vp), 0.001))?;
        println!(
            "{:<18} {:>14} {:>12} {:>12.2}",
            scheme.to_string(),
            env.vstore().storage_bytes(),
            stats.light_io().page_reads,
            stats.search_time_ms()
        );
    }
    Ok(())
}
