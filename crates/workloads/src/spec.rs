//! The benchmark registry: the twenty SPEC C benchmarks of §9.1.

use crate::kernels;
use watchdog_isa::Program;

/// Input scale. The paper samples 2% of each SPEC reference run (§9.1);
/// these kernels are scaled directly instead, small enough that every
/// timed run simulates every instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny inputs for unit tests (tens of thousands of instructions).
    Test,
    /// Default for figure regeneration (hundreds of thousands).
    Small,
    /// Larger runs for final numbers (0.19M–3.45M instructions).
    Reference,
}

impl Scale {
    /// Linear size multiplier relative to [`Scale::Test`].
    pub fn factor(self) -> u64 {
        match self {
            Scale::Test => 1,
            Scale::Small => 4,
            Scale::Reference => 10,
        }
    }
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses a command-line scale name: `test`, `small`, `ref` or
    /// `reference`. The error lists the valid values.
    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "test" => Ok(Scale::Test),
            "small" => Ok(Scale::Small),
            "ref" | "reference" => Ok(Scale::Reference),
            _ => Err("valid values are test, small, ref (or reference)".into()),
        }
    }
}

/// Behavioural category of a benchmark (drives where it lands in Figs.
/// 5–11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Floating-point, array-streaming: few pointer operations, low
    /// Watchdog overhead.
    Fp,
    /// Integer compute: moderate word traffic, little real pointer
    /// movement.
    Int,
    /// Pointer-chasing / allocation-intensive: the expensive end.
    Pointer,
}

/// A registered benchmark.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpec {
    /// Benchmark name (the paper's label).
    pub name: &'static str,
    /// Behavioural category.
    pub category: Category,
    builder: fn(Scale) -> Program,
}

impl BenchSpec {
    /// Builds the benchmark program at the given scale.
    pub fn build(&self, scale: Scale) -> Program {
        (self.builder)(scale)
    }
}

/// All twenty benchmarks in the paper's figure order.
pub fn all_benchmarks() -> Vec<BenchSpec> {
    use Category::*;
    vec![
        BenchSpec {
            name: "lbm",
            category: Fp,
            builder: kernels::fp::lbm,
        },
        BenchSpec {
            name: "comp",
            category: Int,
            builder: kernels::int::compress,
        },
        BenchSpec {
            name: "gzip",
            category: Int,
            builder: kernels::int::gzip,
        },
        BenchSpec {
            name: "milc",
            category: Fp,
            builder: kernels::fp::milc,
        },
        BenchSpec {
            name: "bzip2",
            category: Int,
            builder: kernels::int::bzip2,
        },
        BenchSpec {
            name: "ammp",
            category: Fp,
            builder: kernels::fp::ammp,
        },
        BenchSpec {
            name: "go",
            category: Int,
            builder: kernels::int::go,
        },
        BenchSpec {
            name: "sjeng",
            category: Int,
            builder: kernels::int::sjeng,
        },
        BenchSpec {
            name: "equake",
            category: Fp,
            builder: kernels::fp::equake,
        },
        BenchSpec {
            name: "h264",
            category: Int,
            builder: kernels::int::h264,
        },
        BenchSpec {
            name: "ijpeg",
            category: Int,
            builder: kernels::int::ijpeg,
        },
        BenchSpec {
            name: "gobmk",
            category: Int,
            builder: kernels::int::gobmk,
        },
        BenchSpec {
            name: "art",
            category: Fp,
            builder: kernels::fp::art,
        },
        BenchSpec {
            name: "twolf",
            category: Pointer,
            builder: kernels::ptr::twolf,
        },
        BenchSpec {
            name: "hmmer",
            category: Int,
            builder: kernels::int::hmmer,
        },
        BenchSpec {
            name: "vpr",
            category: Pointer,
            builder: kernels::ptr::vpr,
        },
        BenchSpec {
            name: "mcf",
            category: Pointer,
            builder: kernels::ptr::mcf,
        },
        BenchSpec {
            name: "mesa",
            category: Fp,
            builder: kernels::fp::mesa,
        },
        BenchSpec {
            name: "gcc",
            category: Pointer,
            builder: kernels::ptr::gcc,
        },
        BenchSpec {
            name: "perl",
            category: Pointer,
            builder: kernels::ptr::perl,
        },
    ]
}

/// Looks a benchmark up by name.
pub fn benchmark(name: &str) -> Option<BenchSpec> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_benchmarks_with_unique_names() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 20);
        let mut names = std::collections::HashSet::new();
        for b in &all {
            assert!(names.insert(b.name), "duplicate benchmark {}", b.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("mcf").is_some());
        assert!(benchmark("lbm").is_some());
        assert!(benchmark("nonesuch").is_none());
    }

    #[test]
    fn every_benchmark_builds_at_test_scale() {
        for b in all_benchmarks() {
            let p = b.build(Scale::Test);
            assert_eq!(p.name(), b.name);
            assert!(p.len() > 5, "{} suspiciously small", b.name);
        }
    }

    #[test]
    fn scale_factors_are_monotonic() {
        assert!(Scale::Test.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Reference.factor());
    }
}
