//! Core configuration reproducing Table 2 of the paper.

use crate::wheel::POOL_PAD;
use watchdog_mem::ConfigError;

/// Table 2's physical register files, printed by
/// [`CoreConfig::describe`]. Not modelled: the timing model renames only
/// the metadata file, whose pool can never run out
/// ([`META_PREGS`](crate::rename::META_PREGS)), so these sizes never
/// affect a simulated number.
pub const TABLE2_REGISTERS: &str = "(160 int + 144 floating point)";

/// Table 2 rows the timing model does not simulate, printed by
/// [`CoreConfig::describe`]: the clock (the simulator reports cycles) and
/// the fetch and rename latencies (the frontend charges fetch bandwidth,
/// I-cache misses and redirects; pipeline depth enters only through
/// `CoreConfig::redirect_penalty`).
pub const TABLE2_CLOCK: &str = "3.2 GHz";
/// Table 2's fetch latency; not modelled (see [`TABLE2_CLOCK`]).
pub const TABLE2_FETCH_LATENCY: &str = "3 cycle latency";
/// Table 2's rename latency; not modelled (see [`TABLE2_CLOCK`]).
pub const TABLE2_RENAME_LATENCY: &str = "2 cycle latency";

/// Widest fetch (bytes), rename or commit (µops) width per cycle. It
/// bounds the CPI stack's `cycles × commit_width` slots: a µop adds under
/// 2^24 cycles ([`MAX_LATENCY`](watchdog_mem::MAX_LATENCY)), so under 2^30
/// slots, and overflow takes 2^34 worst-case µops, over three times what
/// the default limit (2×10^8 instructions of at most 24 µops) allows.
const MAX_WIDTH: u64 = 64;

/// Out-of-order core parameters.
///
/// [`CoreConfig::sandy_bridge`] reproduces Table 2; every field is public so
/// ablation studies can vary one parameter at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Fetch bandwidth in bytes per cycle ("16 bytes/cycle").
    pub fetch_bytes_per_cycle: u64,
    /// Rename width in µops per cycle ("max 6 µops per cycle").
    pub rename_width: u64,
    /// Dispatch latency in cycles.
    pub dispatch_latency: u64,
    /// Reorder-buffer entries ("168-entry ROB").
    pub rob_entries: usize,
    /// Issue-queue entries ("54-entry IQ").
    pub iq_entries: usize,
    /// Load-queue entries ("64-entry LQ").
    pub lq_entries: usize,
    /// Store-queue entries ("36-entry SQ").
    pub sq_entries: usize,
    /// Issue width in µops per cycle ("6-wide").
    pub issue_width: u64,
    /// Commit width in µops per cycle.
    pub commit_width: u64,
    /// Integer ALUs ("6 ALU").
    pub int_alus: usize,
    /// Branch units ("1 branch").
    pub branch_units: usize,
    /// Data-cache load ports ("2 ld").
    pub load_ports: usize,
    /// Data-cache store ports ("1 st").
    pub store_ports: usize,
    /// Integer multiply/divide units ("2 mul/div").
    pub muldiv_units: usize,
    /// FP ALU/convert units ("2 ALU/convert").
    pub fp_alus: usize,
    /// FP multiply units ("1 mul").
    pub fp_muls: usize,
    /// FP divide/sqrt units ("1 mul/div/sqrt").
    pub fp_divs: usize,
    /// Lock-location cache ports (the dedicated cache of §4.2 is a peer of
    /// the L1 caches; two ports match the D-cache's load-port bandwidth so
    /// checks keep pace with loads).
    pub ll_ports: usize,
    /// Branch-misprediction redirect penalty in cycles (fetch 3 + rename 2
    /// + dispatch 1 plus queue/refill delays).
    pub redirect_penalty: u64,
    /// Integer ALU latency.
    pub lat_int_alu: u64,
    /// Integer multiply latency.
    pub lat_int_mul: u64,
    /// Integer divide latency (unpipelined).
    pub lat_int_div: u64,
    /// FP add/convert latency.
    pub lat_fp_alu: u64,
    /// FP multiply latency.
    pub lat_fp_mul: u64,
    /// FP divide latency (unpipelined).
    pub lat_fp_div: u64,
    /// Address-generation latency preceding a cache access.
    pub lat_agu: u64,
    /// Return-address-stack entries.
    pub ras_entries: usize,
}

impl CoreConfig {
    /// The Table 2 configuration.
    pub const fn sandy_bridge() -> Self {
        CoreConfig {
            fetch_bytes_per_cycle: 16,
            rename_width: 6,
            dispatch_latency: 1,
            rob_entries: 168,
            iq_entries: 54,
            lq_entries: 64,
            sq_entries: 36,
            issue_width: 6,
            commit_width: 6,
            int_alus: 6,
            branch_units: 1,
            load_ports: 2,
            store_ports: 1,
            muldiv_units: 2,
            fp_alus: 2,
            fp_muls: 1,
            fp_divs: 1,
            ll_ports: 2,
            redirect_penalty: 14,
            lat_int_alu: 1,
            lat_int_mul: 3,
            lat_int_div: 20,
            lat_fp_alu: 3,
            lat_fp_mul: 4,
            lat_fp_div: 12,
            lat_agu: 1,
            ras_entries: 16,
        }
    }

    /// Table 2 rows as `(parameter, value)` pairs, for the `table2`
    /// reproduction binary.
    pub fn describe(&self) -> Vec<(String, String)> {
        vec![
            ("Clock".into(), TABLE2_CLOCK.into()),
            (
                "Bpred".into(),
                "3-table PPM: 256x2, 128x4, 128x4, 8-bit tags, 2-bit counters".into(),
            ),
            (
                "Fetch".into(),
                format!(
                    "{} bytes/cycle. {TABLE2_FETCH_LATENCY}",
                    self.fetch_bytes_per_cycle
                ),
            ),
            (
                "Rename".into(),
                format!(
                    "Max {} uops per cycle. {TABLE2_RENAME_LATENCY}",
                    self.rename_width
                ),
            ),
            (
                "Dispatch".into(),
                format!(
                    "Max {} uops per cycle. {} cycle latency",
                    self.rename_width, self.dispatch_latency
                ),
            ),
            ("Registers".into(), TABLE2_REGISTERS.into()),
            (
                "ROB/IQ".into(),
                format!(
                    "{}-entry ROB, {}-entry IQ",
                    self.rob_entries, self.iq_entries
                ),
            ),
            (
                "Issue".into(),
                format!("{}-wide. Speculative wakeup.", self.issue_width),
            ),
            (
                "Int FUs".into(),
                format!(
                    "{} ALU. {} branch. {} ld. {} st. {} mul/div",
                    self.int_alus,
                    self.branch_units,
                    self.load_ports,
                    self.store_ports,
                    self.muldiv_units
                ),
            ),
            (
                "FP FUs".into(),
                format!(
                    "{} ALU/convert. {} mul. {} mul/div/sqrt.",
                    self.fp_alus, self.fp_muls, self.fp_divs
                ),
            ),
            ("LQ size".into(), format!("{}-entry LQ", self.lq_entries)),
            ("SQ size".into(), format!("{}-entry SQ", self.sq_entries)),
        ]
    }

    /// Checks that every sizing field describes a buildable machine:
    /// each window and the return-address stack hold
    /// `1..=`[`MAX_ENTRIES`](watchdog_mem::MAX_ENTRIES) entries, each
    /// functional-unit class (including the issue-slot pool, sized by
    /// `issue_width`) has `1..=`[`POOL_PAD`] units, the
    /// fetch/rename/commit widths are in `1..=64`, and every latency
    /// (`dispatch_latency`, `redirect_penalty`, each `lat_*`) is at most
    /// [`MAX_LATENCY`](watchdog_mem::MAX_LATENCY), which keeps every
    /// timestamp sum from overflowing (the argument is on the constant).
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let entries = |field, value: usize| ConfigError::check_entries(field, value as u64);
        let units =
            |field, value: usize| ConfigError::check_range(field, value as u64, 1, POOL_PAD as u64);
        let width = |field, value| ConfigError::check_range(field, value, 1, MAX_WIDTH);
        entries("rob_entries", self.rob_entries)?;
        entries("iq_entries", self.iq_entries)?;
        entries("lq_entries", self.lq_entries)?;
        entries("sq_entries", self.sq_entries)?;
        units("int_alus", self.int_alus)?;
        units("muldiv_units", self.muldiv_units)?;
        units("fp_alus", self.fp_alus)?;
        units("fp_muls", self.fp_muls)?;
        units("fp_divs", self.fp_divs)?;
        units("branch_units", self.branch_units)?;
        units("load_ports", self.load_ports)?;
        units("store_ports", self.store_ports)?;
        units("ll_ports", self.ll_ports)?;
        units("issue_width", self.issue_width as usize)?;
        width("fetch_bytes_per_cycle", self.fetch_bytes_per_cycle)?;
        width("rename_width", self.rename_width)?;
        width("commit_width", self.commit_width)?;
        entries("ras_entries", self.ras_entries)?;
        for (field, value) in [
            ("dispatch_latency", self.dispatch_latency),
            ("redirect_penalty", self.redirect_penalty),
            ("lat_int_alu", self.lat_int_alu),
            ("lat_int_mul", self.lat_int_mul),
            ("lat_int_div", self.lat_int_div),
            ("lat_fp_alu", self.lat_fp_alu),
            ("lat_fp_mul", self.lat_fp_mul),
            ("lat_fp_div", self.lat_fp_div),
            ("lat_agu", self.lat_agu),
        ] {
            ConfigError::check_latency(field, value)?;
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::sandy_bridge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchdog_mem::Constraint;

    #[test]
    fn table2_values() {
        let c = CoreConfig::sandy_bridge();
        assert_eq!(c.rob_entries, 168);
        assert_eq!(c.iq_entries, 54);
        assert_eq!(c.lq_entries, 64);
        assert_eq!(c.sq_entries, 36);
        assert_eq!(c.int_alus, 6);
        assert_eq!(c.load_ports, 2);
        assert_eq!(c.store_ports, 1);
        assert_eq!(c.fetch_bytes_per_cycle, 16);
    }

    #[test]
    fn describe_covers_table2_rows() {
        let rows = CoreConfig::sandy_bridge().describe();
        assert!(rows.len() >= 12);
        assert!(rows.iter().any(|(k, v)| k == "ROB/IQ" && v.contains("168")));
        assert!(rows.iter().any(|(k, _)| k == "Bpred"));
        assert!(rows
            .iter()
            .any(|(k, v)| k == "Registers" && v == "(160 int + 144 floating point)"));
        let row = |name: &str| rows.iter().find(|(k, _)| k == name).unwrap().1.clone();
        assert_eq!(row("Clock"), "3.2 GHz");
        assert_eq!(row("Fetch"), "16 bytes/cycle. 3 cycle latency");
        assert_eq!(row("Rename"), "Max 6 uops per cycle. 2 cycle latency");
    }

    #[test]
    fn table2_config_validates() {
        assert_eq!(CoreConfig::sandy_bridge().validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_offending_field() {
        let bad = CoreConfig {
            int_alus: POOL_PAD + 1,
            ..CoreConfig::sandy_bridge()
        };
        let err = bad.validate().unwrap_err();
        assert_eq!(err.field, "int_alus");
        assert_eq!(
            err.constraint,
            Constraint::Range {
                min: 1,
                max: POOL_PAD as u64
            }
        );
        assert!(err.to_string().contains("int_alus"), "{err}");
    }
}
