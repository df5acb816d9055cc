//! Pointer identification policies (§5).
//!
//! Watchdog must decide which loads/stores might move *pointers* (and thus
//! need metadata µops). Two policies from the paper:
//!
//! * **Conservative** (§5.1): "only a 64-bit load/store to an integer
//!   register may be a pointer operation" — floating-point and sub-word
//!   accesses never are. The paper measures ≈31% of memory accesses
//!   classified this way (Fig. 5, left bars).
//! * **ISA-assisted** (§5.2): the compiler marks pointer load/store
//!   variants. The paper emulates the compiler with "a profiling pass to
//!   determine which static instructions ever load or store valid pointer
//!   metadata"; we reproduce exactly that with [`Profile`]. ≈18% of
//!   accesses (Fig. 5, right bars).

use watchdog_isa::insn::{Inst, PtrHint, Width};

/// Which identification scheme a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointerId {
    /// Conservative heuristic: any 8-byte integer load/store may move a
    /// pointer.
    Conservative,
    /// ISA-assisted: only statically-marked instructions move pointers; the
    /// marking comes from a profiling pass ([`Profile`]).
    IsaAssisted,
}

/// The set of static instruction indices that ever loaded or stored valid
/// pointer metadata, as collected by a profiling run.
///
/// A bitset indexed by static instruction: [`Profile::is_marked`] runs on
/// every 8-byte `Auto` load and store of an ISA-assisted run, so it is a
/// shift and a mask, not a hash probe. The bitset only grows to the word
/// holding the highest marked index, so two profiles with the same marks
/// are equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    marked: Vec<u64>,
}

impl Profile {
    /// An empty profile (marks nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a static instruction as a pointer load/store.
    pub fn mark(&mut self, inst_index: usize) {
        let word = inst_index / 64;
        if word >= self.marked.len() {
            self.marked.resize(word + 1, 0);
        }
        self.marked[word] |= 1 << (inst_index % 64);
    }

    /// Whether a static instruction is marked.
    #[inline]
    pub fn is_marked(&self, inst_index: usize) -> bool {
        self.marked
            .get(inst_index / 64)
            .is_some_and(|w| w >> (inst_index % 64) & 1 == 1)
    }

    /// Number of marked static instructions.
    pub fn len(&self) -> usize {
        self.marked.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.marked.is_empty()
    }
}

/// A resolved policy: everything the machine needs to classify one
/// load/store instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointerPolicy {
    /// Conservative classification.
    Conservative,
    /// Profile-driven classification.
    Profiled(Profile),
}

impl PointerPolicy {
    /// Classifies the load/store at static index `inst_index`.
    ///
    /// Explicit [`PtrHint`] annotations (the ISA variants of §5.2) override
    /// either policy; only 8-byte integer accesses can ever be pointer
    /// operations.
    pub fn classify(&self, inst_index: usize, inst: &Inst) -> bool {
        let (width, hint) = match inst {
            Inst::Load { width, hint, .. } | Inst::Store { width, hint, .. } => (*width, *hint),
            _ => return false,
        };
        if width != Width::B8 {
            return false;
        }
        match hint {
            PtrHint::Pointer => true,
            PtrHint::NotPointer => false,
            PtrHint::Auto => match self {
                PointerPolicy::Conservative => true,
                PointerPolicy::Profiled(p) => p.is_marked(inst_index),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use watchdog_isa::insn::{FpWidth, MemAddr};
    use watchdog_isa::reg::{Fpr, Gpr};

    fn load(width: Width, hint: PtrHint) -> Inst {
        Inst::Load {
            dst: Gpr::new(0),
            addr: MemAddr::base(Gpr::new(1)),
            width,
            hint,
        }
    }

    #[test]
    fn conservative_classifies_all_word_accesses() {
        let p = PointerPolicy::Conservative;
        assert!(p.classify(0, &load(Width::B8, PtrHint::Auto)));
        assert!(p.classify(
            0,
            &Inst::Store {
                src: Gpr::new(0),
                addr: MemAddr::base(Gpr::new(1)),
                width: Width::B8,
                hint: PtrHint::Auto
            }
        ));
    }

    #[test]
    fn sub_word_and_fp_are_never_pointers() {
        let p = PointerPolicy::Conservative;
        assert!(!p.classify(0, &load(Width::B4, PtrHint::Auto)));
        assert!(!p.classify(0, &load(Width::B1, PtrHint::Auto)));
        let fp = Inst::LoadFp {
            dst: Fpr::new(0),
            addr: MemAddr::base(Gpr::new(1)),
            width: FpWidth::F8,
        };
        assert!(!p.classify(0, &fp));
        // Even an explicit Pointer hint cannot make a sub-word access a
        // pointer op.
        assert!(!p.classify(0, &load(Width::B4, PtrHint::Pointer)));
    }

    #[test]
    fn hints_override_policies() {
        let p = PointerPolicy::Profiled(Profile::new());
        assert!(p.classify(0, &load(Width::B8, PtrHint::Pointer)));
        let c = PointerPolicy::Conservative;
        assert!(!c.classify(0, &load(Width::B8, PtrHint::NotPointer)));
    }

    #[test]
    fn profile_marks_specific_instructions() {
        let mut prof = Profile::new();
        prof.mark(7);
        prof.mark(7); // idempotent
        assert_eq!(prof.len(), 1);
        let p = PointerPolicy::Profiled(prof);
        assert!(p.classify(7, &load(Width::B8, PtrHint::Auto)));
        assert!(!p.classify(8, &load(Width::B8, PtrHint::Auto)));
    }

    #[test]
    fn non_memory_instructions_are_never_classified() {
        let p = PointerPolicy::Conservative;
        assert!(!p.classify(0, &Inst::Nop));
        assert!(!p.classify(
            0,
            &Inst::MovImm {
                dst: Gpr::new(0),
                imm: 1
            }
        ));
    }

    #[test]
    fn equal_marks_make_equal_profiles() {
        let (mut a, mut b) = (Profile::new(), Profile::new());
        for i in [3, 200, 64] {
            a.mark(i);
        }
        for i in [64, 3, 200, 200] {
            b.mark(i);
        }
        assert_eq!(a, b, "insertion order and repeats do not matter");
        assert_eq!(a.len(), 3);
        assert!(a.is_marked(200) && !a.is_marked(201) && !a.is_marked(10_000));
        b.mark(65);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_profile() {
        assert!(Profile::new().is_empty());
        let mut p = Profile::new();
        p.mark(0);
        assert!(!p.is_empty());
    }
}
