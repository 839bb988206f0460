//! `snoc sim`: run one configuration of the 3D STT-RAM CMP and print
//! its metrics.
//!
//! Defaults: `--app tpcc --scenario MRAM-4TSB-WB --cycles 20000
//! --warmup 2000 --mode profile`. `--list` prints Table 3 instead.

use crate::cli::{number, operand};
use snoc_common::config::{SystemConfig, TsbPlacement};
use snoc_core::scenario::Scenario;
use snoc_core::system::{DriveMode, System};
use snoc_noc::NocEnv;
use snoc_workload::mixes::{self, Workload};
use snoc_workload::table3;

/// A checked `snoc sim` command line.
#[derive(Debug)]
pub struct SimArgs {
    /// Print Table 3's applications instead of running.
    pub list: bool,
    /// The design point.
    pub scenario: Scenario,
    /// The validated configuration.
    pub cfg: SystemConfig,
    /// One application per core.
    pub workload: Workload,
    /// Profile-driven or full-stack.
    pub mode: DriveMode,
}

impl SimArgs {
    /// Parses the flags after `snoc sim`.
    ///
    /// # Errors
    ///
    /// An unknown flag, scenario, application or mix, a malformed
    /// number, or a configuration [`SystemConfig::validate`] rejects.
    pub fn parse<'a>(args: &mut impl Iterator<Item = &'a str>) -> Result<Self, String> {
        let mut app = "tpcc";
        let mut mix = None;
        let mut scenario = Scenario::SttRam4TsbWb;
        let mut mode = DriveMode::Profile;
        let mut list = false;
        let (mut warmup, mut cycles) = (2_000u64, 20_000u64);
        let (mut seed, mut regions, mut placement, mut hops) = (None, None, None, None);
        while let Some(arg) = args.next() {
            match arg {
                "--app" => app = operand(args, arg, "an application")?,
                "--mix" => mix = Some(operand(args, arg, "case1 or case2")?),
                "--scenario" => {
                    let name = operand(args, arg, "a scenario")?;
                    scenario = Scenario::by_name(name).ok_or_else(|| {
                        let names = Scenario::ALL.map(|s| s.name()).join(", ");
                        format!("unknown scenario `{name}` (known: {names})")
                    })?;
                }
                "--cycles" => cycles = number(arg, operand(args, arg, "a count")?)?,
                "--warmup" => warmup = number(arg, operand(args, arg, "a count")?)?,
                "--seed" => seed = Some(number(arg, operand(args, arg, "a seed")?)?),
                "--mode" => {
                    mode = match operand(args, arg, "profile or fullstack")? {
                        "profile" => DriveMode::Profile,
                        "fullstack" => DriveMode::FullStack,
                        other => return Err(format!("--mode: unknown mode `{other}`")),
                    }
                }
                "--regions" => regions = Some(number(arg, operand(args, arg, "a count")?)?),
                "--placement" => {
                    placement = Some(match operand(args, arg, "corner or stagger")? {
                        "corner" => TsbPlacement::Corner,
                        "stagger" | "staggered" => TsbPlacement::Staggered,
                        other => return Err(format!("--placement: unknown placement `{other}`")),
                    });
                }
                "--hops" => hops = Some(number(arg, operand(args, arg, "a hop count")?)?),
                "--list" => list = true,
                _ => return Err(format!("unrecognized argument `{arg}`")),
            }
        }
        let mut cfg = scenario.config();
        cfg.warmup_cycles = warmup;
        cfg.measure_cycles = cycles;
        cfg.seed = seed.unwrap_or(cfg.seed);
        cfg.regions = regions.unwrap_or(cfg.regions);
        cfg.tsb_placement = placement.unwrap_or(cfg.tsb_placement);
        cfg.parent_hops = hops.unwrap_or(cfg.parent_hops);
        cfg.validate()
            .map_err(|e| format!("invalid configuration: {e}"))?;
        let workload = match mix {
            None => Workload::homogeneous(app, cfg.cores())
                .ok_or_else(|| format!("unknown application `{app}`; try --list"))?,
            Some("case1") => mixes::case1(cfg.cores()),
            Some("case2") => mixes::case2(cfg.cores()),
            Some(other) => return Err(format!("unknown mix `{other}` (case1|case2)")),
        };
        Ok(Self {
            list,
            scenario,
            cfg,
            workload,
            mode,
        })
    }
}

/// Runs `args` with the instrumentation `noc` asks for.
pub fn run(args: &SimArgs, noc: &NocEnv) {
    if args.list {
        for p in table3::all() {
            println!(
                "{:12} {:8?} rpki {:6.2} wpki {:6.2} {:?}",
                p.name, p.suite, p.l2_rpki, p.l2_wpki, p.bursty
            );
        }
        return;
    }
    let SimArgs {
        scenario,
        cfg,
        workload,
        mode,
        ..
    } = args;
    println!(
        "running {} on {} for {}+{} cycles ({:?} mode, {} regions, H={})",
        workload.name,
        scenario.name(),
        cfg.warmup_cycles,
        cfg.measure_cycles,
        mode,
        cfg.regions,
        cfg.parent_hops
    );
    let mut system = System::new(*cfg, workload, *mode);
    crate::instrument(&mut system, noc);
    let m = system.run();
    println!(
        "instruction throughput : {:8.2}\n\
         avg / slowest core IPC : {:8.3} / {:.3}\n\
         uncore round trip      : {:8.1} cycles (p95 {:.0})\n\
         net latency (req/resp) : {:8.1} / {:.1} cycles\n\
         bank queue / service   : {:8.1} / {:.1} cycles\n\
         bank reads / writes    : {:8} / {}\n\
         memory fetches         : {:8}\n\
         held at parents        : {:8} packets / {} cycles\n\
         delayable fraction     : {:8.1}%\n\
         uncore energy          : {:8.2} uJ",
        m.instruction_throughput(),
        m.avg_ipc(),
        m.slowest_ipc(),
        m.uncore_rtt,
        m.uncore_rtt_p95,
        m.net_request_latency,
        m.net_response_latency,
        m.bank_queue_wait,
        m.bank_service,
        m.bank_reads,
        m.bank_writes,
        m.mem_fetches,
        m.held_packets,
        m.held_cycles,
        m.delayable_fraction * 100.0,
        m.uncore_energy_nj() / 1000.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SimArgs, String> {
        SimArgs::parse(&mut args.iter().copied())
    }

    #[test]
    fn defaults_and_overrides() {
        let d = parse(&[]).unwrap();
        assert!(!d.list);
        assert_eq!(d.scenario, Scenario::SttRam4TsbWb);
        assert_eq!((d.cfg.warmup_cycles, d.cfg.measure_cycles), (2_000, 20_000));
        assert_eq!(d.workload.name, "tpcc");
        assert_eq!(d.mode, DriveMode::Profile);
        let args = "--scenario sram-64tsb --regions 8 --placement staggered --hops 3 --seed 5 \
                    --cycles 100 --warmup 10";
        let o = parse(&args.split_whitespace().collect::<Vec<_>>()).unwrap();
        assert_eq!(o.scenario, Scenario::Sram64Tsb);
        assert_eq!(o.cfg.regions, 8);
        assert_eq!(o.cfg.tsb_placement, TsbPlacement::Staggered);
        assert_eq!((o.cfg.parent_hops, o.cfg.seed), (3, 5));
        assert_eq!((o.cfg.warmup_cycles, o.cfg.measure_cycles), (10, 100));
        assert!(parse(&["--list"]).unwrap().list);
    }

    #[test]
    fn bad_input_is_refused() {
        for bad in [
            "--scenario NVRAM-9000",
            "--app doom",
            "--mix case3",
            "--mode rtl",
            "--cycles many",
            "--regions 5",
            "--placement diagonal",
            "--cycles",
            "--bogus",
            "--list --bogus",
        ] {
            let bad: Vec<&str> = bad.split_whitespace().collect();
            assert!(parse(&bad).is_err(), "{bad:?}");
        }
    }
}
