//! Checked execution: an ASan-style heap sanitizer for inline objects.
//!
//! The differential oracle (the soundness firewall in `oi-core`) only sees
//! a miscompile when it changes *printed output*, termination status, or
//! the allocation census. A transformation bug that corrupts inline state
//! without reaching a `print` escapes it. Checked execution closes that
//! gap at the instruction level: the interpreter maintains a **shadow heap
//! map** alongside the real heap and validates every inline-object
//! invariant the §5 transformation (class restructuring, use redirection,
//! assignment specialization) is supposed to preserve:
//!
//! - **Interior bounds**: a `MakeInterior` / `MakeInteriorElem` result must
//!   stay inside its container's slot array, per the resolved layout.
//! - **Kind and class-of-slot agreement**: the container slot a child field
//!   resolves to must be the slot class restructuring created for it. The
//!   restructurer names spliced fields `<field>$<childfield>` (shared
//!   divergent slots `<field>$inline`), so the slot's *name* is redundant
//!   with the layout table and acts as ground truth even when the layout
//!   table itself was corrupted.
//! - **Canary words**: the words bracketing an inline region must never be
//!   addressed through that region. An off-by-one in slot arithmetic
//!   resolves a child field exactly one word outside its true region — the
//!   canary position — and is reported as a clobber, distinct from general
//!   slot confusion. For inline arrays the canary is the neighboring
//!   element's state: a field map entry at or beyond the element width
//!   overruns the bracket.
//! - **Region overlap**: two distinct inline regions on the same object
//!   must be equal, disjoint, or properly nested (nested inlining).
//!   Partial overlap means two children share storage — the §5.2
//!   Figure-11 bug class.
//! - **Poison**: an inline slot that was never written and never covered
//!   by a completed child constructor holds *poison*; reading it through
//!   an interior reference is a finding, distinct from reading a legal
//!   `nil` that was actually stored.
//! - **Identity integrity**: two live interior references into the same
//!   inline region must agree on the base object and compare identical
//!   under `===`.
//!
//! Findings are structured data ([`SanitizerReport`]), not panics: the run
//! continues (only an out-of-bounds access that the unchecked interpreter
//! could not survive halts it, as [`crate::VmError::CheckedAccessViolation`])
//! and the report rides on [`crate::RunResult::sanitizer`]. The firewall
//! treats any finding in the inlined build as an oracle rejection and
//! bisects/retracts exactly as for an output divergence.
//!
//! The sanitizer never touches [`crate::Metrics`], the cache simulation,
//! or the heap itself, so a clean checked run reports byte-identical
//! metrics to an unchecked run; only wall-clock overhead differs.

use crate::heap::{Heap, HeapObject, ObjKind, WORD};
use crate::interp::{Repr, ResolvedLayout};
use crate::value::ObjId;
use oi_ir::{ArrayLayoutKind, ClassId, MethodId, Program};

/// How much checking the interpreter performs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckLevel {
    /// No checking (production default; zero overhead).
    #[default]
    Off,
    /// Layout validation only: interior bounds, kind/class-of-slot
    /// agreement, canary brackets. No per-object shadow state.
    Basic,
    /// Everything in `Basic` plus the shadow heap map: region overlap,
    /// poison tracking, identity integrity.
    Full,
}

impl CheckLevel {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CheckLevel::Off => "off",
            CheckLevel::Basic => "basic",
            CheckLevel::Full => "full",
        }
    }

    /// Parses a [`CheckLevel::name`] back; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(CheckLevel::Off),
            "basic" => Some(CheckLevel::Basic),
            "full" => Some(CheckLevel::Full),
            _ => None,
        }
    }
}

/// The invariant a [`Finding`] violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// An interior reference resolved outside the container's slot array.
    InteriorBounds,
    /// A container slot disagrees with the layout's promise: wrong kind of
    /// container, or a slot whose restructured name belongs to a different
    /// field or child.
    SlotKindMismatch,
    /// An access landed exactly on a word bracketing its true inline
    /// region — the off-by-one signature (object regions), or an array
    /// field map overrunning the element width into the neighboring
    /// element.
    CanaryClobber,
    /// Two inline regions on the same object partially overlap: neither
    /// equal, disjoint, nor nested.
    RegionOverlap,
    /// Two inline regions claim the same storage for different child
    /// classes.
    ClassMismatch,
    /// A read through an interior reference observed a slot that was never
    /// initialized (neither written nor covered by a completed child
    /// constructor).
    PoisonRead,
    /// Two interior references designate the same inline region but do not
    /// compare identical under `===`.
    IdentityMismatch,
}

impl FindingKind {
    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::InteriorBounds => "interior-bounds",
            FindingKind::SlotKindMismatch => "slot-kind-mismatch",
            FindingKind::CanaryClobber => "canary-clobber",
            FindingKind::RegionOverlap => "region-overlap",
            FindingKind::ClassMismatch => "class-mismatch",
            FindingKind::PoisonRead => "poison-read",
            FindingKind::IdentityMismatch => "identity-mismatch",
        }
    }
}

/// One invariant violation observed during a checked run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Violated invariant.
    pub kind: FindingKind,
    /// Instruction family that tripped the check (`MakeInterior`,
    /// `GetField`, …).
    pub instruction: String,
    /// `Class::method` executing when the check tripped.
    pub method: String,
    /// Heap address of the container object.
    pub address: u64,
    /// The field the finding is about — the container's restructured slot
    /// name where known (provenance-linked: it embeds the inlined field's
    /// name), otherwise the child field.
    pub field: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at {} in {} (field `{}`, container @{}): {}",
            self.kind.name(),
            self.instruction,
            self.method,
            self.field,
            self.address,
            self.detail
        )
    }
}

/// Everything the sanitizer observed over one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SanitizerReport {
    /// The level the run was checked at.
    pub level: CheckLevel,
    /// Recorded findings, in discovery order, capped at
    /// [`SanitizerReport::FINDING_CAP`].
    pub findings: Vec<Finding>,
    /// Total findings including any beyond the cap.
    pub total_findings: u64,
    /// Number of checks performed (advisory; sizing the overhead).
    pub checks: u64,
}

impl SanitizerReport {
    /// Recorded-finding cap; `total_findings` keeps counting past it so a
    /// finding inside a hot loop cannot balloon the report.
    pub const FINDING_CAP: usize = 32;

    /// `true` when the run violated no invariant.
    pub fn is_clean(&self) -> bool {
        self.total_findings == 0
    }

    /// The report as schema-stable JSON (additive fields only).
    pub fn to_json(&self) -> oi_support::Json {
        use oi_support::Json;
        Json::obj(vec![
            ("level", self.level.name().into()),
            ("total_findings", self.total_findings.into()),
            ("checks", self.checks.into()),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("kind", f.kind.name().into()),
                                ("instruction", f.instruction.clone().into()),
                                ("method", f.method.clone().into()),
                                ("address", f.address.into()),
                                ("field", f.field.clone().into()),
                                ("detail", f.detail.clone().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Shadow flag: the slot was stored to through any path.
const WRITTEN: u8 = 1;
/// Shadow flag: the slot is covered by a child constructor that began on
/// an interior receiver (fields the constructor chose not to set are legal
/// `nil`, not poison).
const CONSTRUCTED: u8 = 2;
/// End of a region chain.
const NO_ENTRY: u32 = u32::MAX;

/// An established inline region on one container object.
struct Region {
    /// Resolved layout id (index into the VM's layout table).
    layout: u32,
    /// Element index (0 for object containers).
    index: u32,
    /// Child class the region claims.
    child_class: ClassId,
    /// The region's sorted container slots: `Regions::slots[start..end]`.
    start: u32,
    end: u32,
}

/// The regions established on one container object (`Full` only), with an
/// index from each container slot to the regions covering it.
///
/// Every region's slots live back to back in one arena, so establishing a
/// region allocates nothing of its own. Each arena entry also links to the
/// next older entry for the same slot: following `heads[slot]` walks the
/// regions covering `slot`, newest first. Nested inlining can cover one slot
/// with several regions, so a slot has a chain rather than one owner.
struct Regions {
    /// Established regions, in establishment order.
    list: Vec<Region>,
    /// Every region's sorted slots, back to back.
    slots: Vec<usize>,
    /// Parallel to `slots`: the owning region and the next older entry
    /// for the same slot (`NO_ENTRY` ends the chain).
    links: Vec<(u32, u32)>,
    /// Per container slot: the newest entry covering it, or `NO_ENTRY`.
    heads: Vec<u32>,
    /// Regions that no chain reaches in full: those with a slot outside
    /// the container, or with no slot at all. Checked on every
    /// establishment and by lookups whose lowest slot has no chain.
    detached: Vec<u32>,
}

impl Regions {
    fn new(slot_count: usize) -> Self {
        Self {
            list: Vec::new(),
            slots: Vec::new(),
            links: Vec::new(),
            heads: vec![NO_ENTRY; slot_count],
            detached: Vec::new(),
        }
    }

    fn slots_of(&self, r: u32) -> &[usize] {
        let region = &self.list[r as usize];
        &self.slots[region.start as usize..region.end as usize]
    }

    fn is(&self, r: u32, layout: u32, index: u32) -> bool {
        let region = &self.list[r as usize];
        region.layout == layout && region.index == index
    }

    /// The regions covering `slot`, newest first (a region listing `slot`
    /// twice appears twice).
    fn covering(&self, slot: usize) -> impl Iterator<Item = u32> + '_ {
        let mut e = self.heads.get(slot).copied().unwrap_or(NO_ENTRY);
        std::iter::from_fn(move || {
            (e != NO_ENTRY).then(|| {
                let (r, next) = self.links[e as usize];
                e = next;
                r
            })
        })
    }

    /// The region established for `(layout, index)` if it covers `slot`.
    fn find_at(&self, slot: usize, layout: u32, index: u32) -> Option<u32> {
        self.covering(slot).find(|&r| self.is(r, layout, index))
    }

    /// The region established for `(layout, index)`, whose lowest slot is
    /// `lowest` (`None` for a region without slots).
    fn find(&self, lowest: Option<usize>, layout: u32, index: u32) -> Option<u32> {
        match lowest {
            Some(s) if s < self.heads.len() => self.find_at(s, layout, index),
            _ => self
                .detached
                .iter()
                .copied()
                .find(|&r| self.is(r, layout, index)),
        }
    }

    /// Appends a region covering `slots` and links it into the index.
    fn push(
        &mut self,
        layout: u32,
        index: u32,
        child_class: ClassId,
        slots: impl Iterator<Item = usize>,
    ) -> u32 {
        // Below `NO_ENTRY`, so no entry or region id can be mistaken for it.
        let narrow = |n: usize| {
            u32::try_from(n)
                .ok()
                .filter(|&n| n != NO_ENTRY)
                .expect("a container holds fewer than 2^32 - 1 regions and region slots")
        };
        let id = narrow(self.list.len());
        let start = narrow(self.slots.len());
        self.slots.extend(slots);
        self.slots[start as usize..].sort_unstable();
        let end = narrow(self.slots.len());
        let mut detached = start == end;
        for e in start..end {
            let s = self.slots[e as usize];
            match self.heads.get_mut(s) {
                Some(head) => {
                    self.links.push((id, *head));
                    *head = e;
                }
                None => {
                    self.links.push((id, NO_ENTRY));
                    detached = true;
                }
            }
        }
        if detached {
            self.detached.push(id);
        }
        self.list.push(Region {
            layout,
            index,
            child_class,
            start,
            end,
        });
        id
    }

    /// Fills `out` with the regions established before `r` that may share
    /// a slot with it, in establishment order: everything on the chains of
    /// `r`'s slots plus every detached region. Every region that does share
    /// a slot is included.
    fn earlier_candidates(&self, r: u32, out: &mut Vec<u32>) {
        out.clear();
        for &s in self.slots_of(r) {
            out.extend(self.covering(s).filter(|&c| c != r));
        }
        out.extend(self.detached.iter().copied().filter(|&c| c != r));
        out.sort_unstable();
        out.dedup();
    }
}

/// The shadow-heap sanitizer. One per checked run; owned by the VM.
pub struct Sanitizer {
    level: CheckLevel,
    findings: Vec<Finding>,
    total_findings: u64,
    checks: u64,
    /// Layout validations already performed, one flag per
    /// `(resolved layout id, container key)` — container key is the class
    /// index for instances, the class count for inline arrays.
    validated: Vec<bool>,
    /// `WRITTEN | CONSTRUCTED` per heap word, indexed by slot address
    /// divided by [`WORD`] (`Full` only; grown on demand).
    flags: Vec<u8>,
    /// Established regions per container, indexed densely by [`ObjId`]
    /// (`Full` only).
    regions: Vec<Option<Box<Regions>>>,
    /// Reused buffer for establishment's conflict candidates.
    candidates: Vec<u32>,
}

impl Sanitizer {
    /// A sanitizer for `level`; `None` when checking is off.
    pub fn new(level: CheckLevel) -> Option<Self> {
        (level != CheckLevel::Off).then(|| Self {
            level,
            findings: Vec::new(),
            total_findings: 0,
            checks: 0,
            validated: Vec::new(),
            flags: Vec::new(),
            regions: Vec::new(),
            candidates: Vec::new(),
        })
    }

    /// Finalizes into the run's report.
    pub(crate) fn into_report(self) -> SanitizerReport {
        SanitizerReport {
            level: self.level,
            findings: self.findings,
            total_findings: self.total_findings,
            checks: self.checks,
        }
    }

    fn full(&self) -> bool {
        self.level == CheckLevel::Full
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        kind: FindingKind,
        instruction: &str,
        program: &Program,
        method: Option<MethodId>,
        address: u64,
        field: String,
        detail: String,
    ) {
        self.total_findings += 1;
        if self.findings.len() >= SanitizerReport::FINDING_CAP {
            return;
        }
        self.findings.push(Finding {
            kind,
            instruction: instruction.to_owned(),
            method: method.map_or_else(|| "<entry>".to_owned(), |m| program.method_display(m)),
            address,
            field,
            detail,
        });
    }

    /// `true` the first time `layout` is validated against a container of
    /// class `class` (`None`: an inline array).
    fn first_validation(&mut self, program: &Program, layout: u32, class: Option<ClassId>) -> bool {
        let keys = program.classes.len() + 1;
        let key = layout as usize * keys + class.map_or(keys - 1, ClassId::index);
        if key >= self.validated.len() {
            self.validated.resize(key + 1, false);
        }
        !std::mem::replace(&mut self.validated[key], true)
    }

    /// The shadow flags of `slot` of `container`, growing the table as the
    /// heap grows.
    fn flags_mut(&mut self, container: &HeapObject, slot: usize) -> &mut u8 {
        let word = (container.slot_addr(slot) / WORD) as usize;
        if word >= self.flags.len() {
            self.flags.resize(word + 1, 0);
        }
        &mut self.flags[word]
    }

    /// Validates the establishment of an interior reference
    /// `(obj, index, layout)` — called whenever the interpreter creates
    /// one (`MakeInterior`, `MakeInteriorElem`, whole-element reads and
    /// stores of inline arrays).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_interior(
        &mut self,
        program: &Program,
        heap: &Heap,
        layouts: &[ResolvedLayout],
        method: Option<MethodId>,
        instruction: &str,
        obj: ObjId,
        index: u32,
        layout: u32,
    ) {
        self.checks += 1;
        let container = heap.get(obj);
        let addr = container.addr;
        let container_len = container.slots.len();
        let resolved = &layouts[layout as usize];
        let kind = container.kind;
        match (&resolved.repr, kind) {
            (Repr::Object { slots }, ObjKind::Instance(class)) => {
                if self.first_validation(program, layout, Some(class)) {
                    self.validate_object_region(
                        program,
                        method,
                        instruction,
                        addr,
                        class,
                        slots,
                        &resolved.child_fields,
                        container_len,
                    );
                }
            }
            (Repr::Array { width, map, .. }, ObjKind::ArrayInline { len, .. }) => {
                if self.first_validation(program, layout, None) {
                    for (j, &m) in map.iter().enumerate() {
                        if m >= *width {
                            self.record(
                                FindingKind::CanaryClobber,
                                instruction,
                                program,
                                method,
                                addr,
                                child_field_name(program, resolved, j),
                                format!(
                                    "array field map entry {m} overruns element width {width} \
                                     into the bracketing element"
                                ),
                            );
                        }
                    }
                }
                if index as usize >= len {
                    self.record(
                        FindingKind::InteriorBounds,
                        instruction,
                        program,
                        method,
                        addr,
                        format!("[{index}]"),
                        format!("element index {index} outside inline array of length {len}"),
                    );
                }
            }
            (repr, kind) => {
                let (promised, actual) = match repr {
                    Repr::Object { .. } => ("object container", describe_kind(program, kind)),
                    Repr::Array { .. } => ("inline-array container", describe_kind(program, kind)),
                };
                self.record(
                    FindingKind::SlotKindMismatch,
                    instruction,
                    program,
                    method,
                    addr,
                    "<container>".to_owned(),
                    format!("layout promises {promised}, container is {actual}"),
                );
            }
        }
        if self.full() {
            self.establish_region(
                program,
                heap,
                layouts,
                method,
                instruction,
                obj,
                index,
                layout,
            );
        }
    }

    /// The static (per layout × container class) half of object-region
    /// validation: bounds, and the restructurer's naming convention as
    /// ground truth for slot agreement and canary brackets.
    #[allow(clippy::too_many_arguments)]
    fn validate_object_region(
        &mut self,
        program: &Program,
        method: Option<MethodId>,
        instruction: &str,
        addr: u64,
        class: ClassId,
        slots: &[usize],
        child_fields: &[oi_support::Symbol],
        container_len: usize,
    ) {
        let layout_fields = program.layout_of(class);
        let names: Vec<&str> = layout_fields
            .iter()
            .map(|&f| canonical(program.interner.resolve(program.fields[f].name)))
            .collect();
        // The region's field-name prefix, from the first slot that carries
        // a restructured name ("<prefix>$<childfield>" or
        // "<prefix>$inline").
        let prefix_of = |name: &str, suffix: &str| -> Option<String> {
            name.strip_suffix(suffix).map(str::to_owned)
        };
        let mut region_prefix: Option<String> = None;
        for (j, (&slot, child)) in slots.iter().zip(child_fields).enumerate() {
            let child_name = canonical(program.interner.resolve(*child));
            let suffix = format!("${child_name}");
            if slot >= container_len {
                self.record(
                    FindingKind::InteriorBounds,
                    instruction,
                    program,
                    method,
                    addr,
                    child_name.to_owned(),
                    format!("layout slot {slot} outside container of {container_len} slot(s)"),
                );
                continue;
            }
            let slot_name = names[slot];
            // A divergent-hierarchy shared slot (`<field>$inline`) can only
            // ever host the region's first child field; it carries no
            // child-field suffix, so it neither seeds nor constrains the
            // region prefix (nested composition can legally mix it with
            // deeper `$`-chained prefixes).
            if j == 0 && slot_name.ends_with("$inline") {
                continue;
            }
            match prefix_of(slot_name, &suffix) {
                Some(p) => match &region_prefix {
                    None => region_prefix = Some(p),
                    Some(expect) if *expect == p => {}
                    Some(expect) => {
                        self.record(
                            FindingKind::SlotKindMismatch,
                            instruction,
                            program,
                            method,
                            addr,
                            slot_name.to_owned(),
                            format!(
                                "slot {slot} belongs to inlined field `{p}`, \
                                 region belongs to `{expect}`"
                            ),
                        );
                    }
                },
                None => {
                    // The slot's name does not carry this child field. Find
                    // the slot that does; one word away is the canary
                    // signature of off-by-one slot arithmetic.
                    let truth = names.iter().position(|n| {
                        n.ends_with(&suffix)
                            && region_prefix
                                .as_deref()
                                .is_none_or(|p| n.strip_suffix(&suffix) == Some(p))
                    });
                    let (kind, detail) = match truth {
                        Some(t) if t.abs_diff(slot) == 1 => (
                            FindingKind::CanaryClobber,
                            format!(
                                "slot {slot} is the canary word bracketing the true region \
                                 (child field `{child_name}` lives at slot {t})"
                            ),
                        ),
                        Some(t) => (
                            FindingKind::SlotKindMismatch,
                            format!(
                                "slot {slot} (`{slot_name}`) does not hold child field \
                                 `{child_name}` (true slot {t})"
                            ),
                        ),
                        None => (
                            FindingKind::SlotKindMismatch,
                            format!(
                                "slot {slot} (`{slot_name}`) was never restructured for \
                                 child field `{child_name}`"
                            ),
                        ),
                    };
                    self.record(
                        kind,
                        instruction,
                        program,
                        method,
                        addr,
                        slot_name.to_owned(),
                        detail,
                    );
                }
            }
        }
    }

    /// Unsorted `(container slot, child field name)` pairs for a region —
    /// the positional pairing a region's sorted slot list discards.
    fn slot_field_names(
        layouts: &[ResolvedLayout],
        layout: u32,
        index: u32,
        elem_len: usize,
    ) -> Vec<(usize, oi_support::Symbol)> {
        let resolved = &layouts[layout as usize];
        slot_iter(resolved, index, elem_len)
            .zip(resolved.child_fields.iter().copied())
            .collect()
    }

    /// `true` when one of the two coinciding regions is a legal nested
    /// refinement of the other: on every slot both cover, the outer
    /// region's restructured field name extends the inner's with a
    /// `$<field>` segment (or is the shared `$inline` wildcard). That is
    /// the restructurer's signature for composed inlining, where the
    /// outer child's storage legitimately *is* the inner child's storage.
    fn nested_refinement(
        program: &Program,
        layouts: &[ResolvedLayout],
        existing: (u32, u32),
        layout: u32,
        index: u32,
        elem_len: usize,
    ) -> bool {
        let a = Self::slot_field_names(layouts, existing.0, existing.1, elem_len);
        let b = Self::slot_field_names(layouts, layout, index, elem_len);
        let refines = |outer: &[(usize, oi_support::Symbol)],
                       inner: &[(usize, oi_support::Symbol)]|
         -> bool {
            inner.iter().all(|&(slot, f)| {
                let Some(&(_, of)) = outer.iter().find(|&&(s, _)| s == slot) else {
                    return true;
                };
                let o = canonical(program.interner.resolve(of));
                let i = canonical(program.interner.resolve(f));
                o.ends_with("$inline") || o.ends_with(&format!("${i}"))
            })
        };
        refines(&a, &b) || refines(&b, &a)
    }

    /// Registers `(layout, index)` as a region on `obj`'s shadow and
    /// cross-checks it against previously established regions (`Full`).
    #[allow(clippy::too_many_arguments)]
    fn establish_region(
        &mut self,
        program: &Program,
        heap: &Heap,
        layouts: &[ResolvedLayout],
        method: Option<MethodId>,
        instruction: &str,
        obj: ObjId,
        index: u32,
        layout: u32,
    ) {
        let container = heap.get(obj);
        let elem_len = container.array_len().unwrap_or(0);
        let addr = container.addr;
        let resolved = &layouts[layout as usize];
        let child_class = resolved.child_class;
        let i = obj.index();
        if self.regions.len() <= i {
            self.regions.resize_with(i + 1, || None);
        }
        let regions =
            self.regions[i].get_or_insert_with(|| Box::new(Regions::new(container.slots.len())));
        let lowest = slot_iter(resolved, index, elem_len).min();
        if regions.find(lowest, layout, index).is_some() {
            return;
        }
        let id = regions.push(
            layout,
            index,
            child_class,
            slot_iter(resolved, index, elem_len),
        );
        regions.earlier_candidates(id, &mut self.candidates);
        let slots = regions.slots_of(id);
        let mut conflicts: Vec<(FindingKind, String)> = Vec::new();
        for &r in &self.candidates {
            let existing = &regions.list[r as usize];
            let existing_slots = regions.slots_of(r);
            let shared = existing_slots.iter().filter(|s| slots.contains(s)).count();
            if shared == 0 {
                continue;
            }
            if existing_slots == slots {
                // Composed inlining can make an inner region coincide
                // exactly with its enclosing one (a single-field chain:
                // `b` holds the whole of `b$a`, which holds the whole of
                // `b$a$x`). The restructurer's names arbitrate: if one
                // region's field names `$`-refine the other's on every
                // shared word, the coincidence is legal nesting, not two
                // children fighting over storage.
                if existing.child_class != child_class
                    && !Self::nested_refinement(
                        program,
                        layouts,
                        (existing.layout, existing.index),
                        layout,
                        index,
                        elem_len,
                    )
                {
                    conflicts.push((
                        FindingKind::ClassMismatch,
                        format!(
                            "region claims class `{}`, the same storage was established \
                             as class `{}`",
                            class_name(program, child_class),
                            class_name(program, existing.child_class)
                        ),
                    ));
                }
                continue;
            }
            let nested = shared == slots.len() || shared == existing_slots.len();
            if !nested {
                conflicts.push((
                    FindingKind::RegionOverlap,
                    format!(
                        "region {:?} (class `{}`) partially overlaps established region \
                         {:?} (class `{}`)",
                        slots,
                        class_name(program, child_class),
                        existing_slots,
                        class_name(program, existing.child_class)
                    ),
                ));
            }
        }
        for (kind, detail) in conflicts {
            self.record(
                kind,
                instruction,
                program,
                method,
                addr,
                "<region>".to_owned(),
                detail,
            );
        }
    }

    /// Validates one resolved interior access and updates the shadow map.
    /// Returns the fatal error for an access the unchecked interpreter
    /// could not survive (slot outside the container's slot array).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_access(
        &mut self,
        program: &Program,
        heap: &Heap,
        layouts: &[ResolvedLayout],
        method: Option<MethodId>,
        instruction: &str,
        obj: ObjId,
        index: u32,
        layout: u32,
        child_field: usize,
        slot: usize,
        is_read: bool,
    ) -> Result<(), crate::VmError> {
        self.checks += 1;
        let container = heap.get(obj);
        let container_len = container.slots.len();
        let resolved = &layouts[layout as usize];
        if slot >= container_len {
            self.record(
                FindingKind::InteriorBounds,
                instruction,
                program,
                method,
                container.addr,
                child_field_name(program, resolved, child_field),
                format!(
                    "interior access resolved to slot {slot} outside container of \
                     {container_len} slot(s)"
                ),
            );
            return Err(crate::VmError::CheckedAccessViolation {
                slot,
                len: container_len,
            });
        }
        if !self.full() {
            return Ok(());
        }
        // Canary membership: the access must stay inside the region
        // established for this (layout, index). The accessed slot's chain
        // answers the common case; only an escape looks the region up by
        // its lowest slot.
        let escape = self
            .regions
            .get(obj.index())
            .and_then(Option::as_deref)
            .filter(|regions| regions.find_at(slot, layout, index).is_none())
            .and_then(|regions| {
                let elem_len = container.array_len().unwrap_or(0);
                let lowest = slot_iter(resolved, index, elem_len).min();
                let r = regions.find(lowest, layout, index)?;
                let region = regions.slots_of(r);
                let bracket = region.iter().any(|s| s.abs_diff(slot) == 1);
                Some((
                    if bracket {
                        FindingKind::CanaryClobber
                    } else {
                        FindingKind::InteriorBounds
                    },
                    format!("access to slot {slot} outside established region {region:?}"),
                ))
            });
        let flags = self.flags_mut(container, slot);
        let poison = is_read && *flags == 0;
        if !is_read {
            *flags |= WRITTEN;
        }
        let addr = container.addr;
        if let Some((kind, detail)) = escape {
            self.record(
                kind,
                instruction,
                program,
                method,
                addr,
                child_field_name(program, resolved, child_field),
                detail,
            );
        }
        if poison {
            self.record(
                FindingKind::PoisonRead,
                instruction,
                program,
                method,
                addr,
                child_field_name(program, resolved, child_field),
                format!(
                    "slot {slot} read through an interior reference but never \
                     initialized (poison, not a stored nil)"
                ),
            );
        }
        Ok(())
    }

    /// Marks a direct (whole-object) store into `slot` of `obj`.
    pub(crate) fn on_direct_write(&mut self, heap: &Heap, obj: ObjId, slot: usize) {
        if !self.full() {
            return;
        }
        let container = heap.get(obj);
        if slot < container.slots.len() {
            *self.flags_mut(container, slot) |= WRITTEN;
        }
    }

    /// Marks the region `(layout, index)` constructed: the child's
    /// constructor began executing on an interior receiver. From that
    /// moment the child object exists in the baseline semantics (`new`
    /// allocates before `init` runs), so its unset fields are legal `nil`,
    /// not poison. A region that never sees a constructor — the
    /// copy-assignment path — stays poisoned until each slot is written.
    pub(crate) fn on_ctor_enter(
        &mut self,
        layouts: &[ResolvedLayout],
        heap: &Heap,
        obj: ObjId,
        index: u32,
        layout: u32,
    ) {
        if !self.full() {
            return;
        }
        let container = heap.get(obj);
        let elem_len = container.array_len().unwrap_or(0);
        for s in slot_iter(&layouts[layout as usize], index, elem_len) {
            if s < container.slots.len() {
                *self.flags_mut(container, s) |= CONSTRUCTED;
            }
        }
    }

    /// Cross-checks identity of two interior references into the same
    /// container that did **not** compare identical: if they designate the
    /// same region, `===` just lied about object identity.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_identity(
        &mut self,
        program: &Program,
        heap: &Heap,
        layouts: &[ResolvedLayout],
        method: Option<MethodId>,
        obj: ObjId,
        lhs: (u32, u32),
        rhs: (u32, u32),
    ) {
        if !self.full() {
            return;
        }
        self.checks += 1;
        let container = heap.get(obj);
        let elem_len = container.array_len().unwrap_or(0);
        let (ll, li) = lhs;
        let (rl, ri) = rhs;
        let a = || slot_iter(&layouts[ll as usize], li, elem_len);
        let b = || slot_iter(&layouts[rl as usize], ri, elem_len);
        // Equal sorted slot lists, compared as multisets without sorting.
        let same = a().count() == b().count()
            && a().all(|s| a().filter(|&t| t == s).count() == b().filter(|&t| t == s).count());
        if same {
            self.record(
                FindingKind::IdentityMismatch,
                "Binary",
                program,
                method,
                container.addr,
                "<region>".to_owned(),
                format!(
                    "two interior references into the same region {:?} of `{}` \
                     compare non-identical",
                    region_slots(layouts, ll, li, elem_len),
                    class_name(program, layouts[ll as usize].child_class)
                ),
            );
        }
    }
}

/// Container slots covered by `(resolved, index)`, in layout order.
/// `elem_len` is the element count for inline-array containers (0 for
/// object containers).
fn slot_iter(
    resolved: &ResolvedLayout,
    index: u32,
    elem_len: usize,
) -> impl Iterator<Item = usize> + Clone + '_ {
    let index = index as usize;
    let (positions, array): (&[usize], _) = match &resolved.repr {
        Repr::Object { slots } => (slots, None),
        Repr::Array { kind, width, map } => (map, Some((*kind, *width))),
    };
    positions.iter().map(move |&m| match array {
        None => m,
        Some((ArrayLayoutKind::Interleaved, width)) => index * width + m,
        Some((ArrayLayoutKind::Parallel, _)) => m * elem_len + index,
    })
}

/// Container slots covered by `(layout, index)`, sorted.
fn region_slots(
    layouts: &[ResolvedLayout],
    layout: u32,
    index: u32,
    elem_len: usize,
) -> Vec<usize> {
    let mut slots: Vec<usize> = slot_iter(&layouts[layout as usize], index, elem_len).collect();
    slots.sort_unstable();
    slots
}

/// The name of child field `j` of a layout (`#j` past the field list).
fn child_field_name(program: &Program, resolved: &ResolvedLayout, j: usize) -> String {
    resolved.child_fields.get(j).map_or_else(
        || format!("#{j}"),
        |f| program.interner.resolve(*f).to_owned(),
    )
}

/// Strips trailing `$<digits>` disambiguator segments that the interner's
/// `fresh` appends when a restructured name collides globally (two classes
/// both holding a field `ll` of `Point` yield `ll$x` and `ll$x$1`), leaving
/// the structural `<field>$<childfield>` name. Source identifiers cannot be
/// all digits, so a digits-only segment is always a disambiguator.
fn canonical(name: &str) -> &str {
    let mut n = name;
    while let Some((rest, last)) = n.rsplit_once('$') {
        if !last.is_empty() && last.bytes().all(|b| b.is_ascii_digit()) {
            n = rest;
        } else {
            break;
        }
    }
    n
}

fn class_name(program: &Program, c: ClassId) -> String {
    program.interner.resolve(program.classes[c].name).to_owned()
}

fn describe_kind(program: &Program, kind: ObjKind) -> String {
    match kind {
        ObjKind::Instance(c) => format!("an instance of `{}`", class_name(program, c)),
        ObjKind::Array => "a reference array".to_owned(),
        ObjKind::ArrayInline { .. } => "an inline array".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run, VmConfig};
    use oi_ir::lower::compile;
    use oi_ir::{ConstValue, InlineLayout, Instr, Terminator};

    /// Compiles a Rect/Point skeleton, renames `Rect`'s fields to the
    /// restructurer's convention, adds an inline layout, and replaces
    /// `main`'s body with hand-built instructions — the same IR shape the
    /// real pipeline produces, minus the pipeline.
    ///
    /// `rect_fields` are the post-restructure names for Rect's slots and
    /// `slots` is the layout's slot table.
    fn rig(rect_fields: &[&str], slots: Vec<usize>, body: Body) -> oi_ir::Program {
        let field_decls = rect_fields
            .iter()
            .enumerate()
            .map(|(i, _)| format!("field f{i};"))
            .collect::<Vec<_>>()
            .join(" ");
        let src = format!(
            "class Point {{ field x; field y; }}
             class Rect {{ {field_decls} }}
             fn main() {{ print 0; }}"
        );
        let mut p = compile(&src).unwrap();
        let rect = p.class_by_name("Rect").unwrap();
        for (i, name) in rect_fields.iter().enumerate() {
            let fid = p.classes[rect].own_fields[i];
            p.fields[fid].name = p.interner.fresh(name);
        }
        let point = p.class_by_name("Point").unwrap();
        let x = p.interner.get("x").unwrap();
        let y = p.interner.get("y").unwrap();
        let layout = p.layouts.push(InlineLayout {
            child_class: point,
            child_fields: vec![x, y],
            slots,
            array_kind: None,
        });
        let site = p.fresh_site();
        // Temps: t0 self, t1 rect, t2 interior, t3 scratch.
        let entry = p.entry;
        let instrs = body(rect, layout, x, y, site);
        let m = &mut p.methods[entry];
        m.temp_count = 8;
        let bb = m.entry();
        m.blocks[bb].instrs = instrs;
        m.blocks[bb].term = Terminator::Return(oi_ir::Temp::new(0));
        p
    }

    type Body = fn(
        oi_ir::ClassId,
        oi_ir::LayoutId,
        oi_support::Symbol,
        oi_support::Symbol,
        oi_ir::SiteId,
    ) -> Vec<Instr>;

    fn t(i: usize) -> oi_ir::Temp {
        oi_ir::Temp::new(i)
    }

    fn checked(level: CheckLevel) -> VmConfig {
        VmConfig {
            checked: level,
            ..Default::default()
        }
    }

    /// new Rect; i = interior; i.x = 1; i.y = 2; print i.x;
    fn clean_body(
        rect: oi_ir::ClassId,
        layout: oi_ir::LayoutId,
        x: oi_support::Symbol,
        y: oi_support::Symbol,
        site: oi_ir::SiteId,
    ) -> Vec<Instr> {
        vec![
            Instr::New {
                dst: t(1),
                class: rect,
                args: vec![],
                site,
            },
            Instr::MakeInterior {
                dst: t(2),
                obj: t(1),
                layout,
            },
            Instr::Const {
                dst: t(3),
                value: ConstValue::Int(1),
            },
            Instr::SetField {
                obj: t(2),
                field: x,
                src: t(3),
            },
            Instr::Const {
                dst: t(4),
                value: ConstValue::Int(2),
            },
            Instr::SetField {
                obj: t(2),
                field: y,
                src: t(4),
            },
            Instr::GetField {
                dst: t(5),
                obj: t(2),
                field: x,
            },
            Instr::Print { src: t(5) },
        ]
    }

    /// new Rect; i = interior; i.x = 1; print i.y;   (y never written)
    fn poison_body(
        rect: oi_ir::ClassId,
        layout: oi_ir::LayoutId,
        x: oi_support::Symbol,
        y: oi_support::Symbol,
        site: oi_ir::SiteId,
    ) -> Vec<Instr> {
        vec![
            Instr::New {
                dst: t(1),
                class: rect,
                args: vec![],
                site,
            },
            Instr::MakeInterior {
                dst: t(2),
                obj: t(1),
                layout,
            },
            Instr::Const {
                dst: t(3),
                value: ConstValue::Int(1),
            },
            Instr::SetField {
                obj: t(2),
                field: x,
                src: t(3),
            },
            Instr::GetField {
                dst: t(5),
                obj: t(2),
                field: y,
            },
            Instr::Print { src: t(5) },
        ]
    }

    #[test]
    fn clean_inline_program_reports_no_findings() {
        let p = rig(&["ll$x", "ll$y"], vec![0, 1], clean_body);
        let r = run(&p, &checked(CheckLevel::Full)).unwrap();
        let san = r.sanitizer.expect("checked run carries a report");
        assert!(san.is_clean(), "findings: {:?}", san.findings);
        assert!(san.checks > 0);
        assert_eq!(r.output, "1\n");
    }

    #[test]
    fn unchecked_run_carries_no_report_and_identical_metrics() {
        let p = rig(&["ll$x", "ll$y"], vec![0, 1], clean_body);
        let plain = run(&p, &VmConfig::default()).unwrap();
        assert!(plain.sanitizer.is_none());
        let full = run(&p, &checked(CheckLevel::Full)).unwrap();
        assert_eq!(
            plain.metrics, full.metrics,
            "checking must not perturb the cost model"
        );
        assert_eq!(plain.output, full.output);
    }

    #[test]
    fn never_initialized_inline_slot_reads_as_poison() {
        let p = rig(&["ll$x", "ll$y"], vec![0, 1], poison_body);
        let r = run(&p, &checked(CheckLevel::Full)).unwrap();
        let san = r.sanitizer.unwrap();
        assert_eq!(san.findings.len(), 1, "{:?}", san.findings);
        assert_eq!(san.findings[0].kind, FindingKind::PoisonRead);
        assert_eq!(san.findings[0].field, "y");
        // The run itself still completes — the slot legally holds nil.
        assert_eq!(r.output, "nil\n");
        // Basic checking has no shadow map, so no poison tracking.
        let basic = run(&p, &checked(CheckLevel::Basic)).unwrap();
        assert!(basic.sanitizer.unwrap().is_clean());
    }

    #[test]
    fn unrestructured_slot_names_are_a_kind_mismatch() {
        // Fields keep their source names: the layout points at storage the
        // restructurer never created.
        let p = rig(&["a", "b"], vec![0, 1], clean_body);
        let r = run(&p, &checked(CheckLevel::Basic)).unwrap();
        let san = r.sanitizer.unwrap();
        assert!(
            san.findings
                .iter()
                .any(|f| f.kind == FindingKind::SlotKindMismatch),
            "{:?}",
            san.findings
        );
    }

    #[test]
    fn off_by_one_slot_is_a_canary_clobber() {
        // True region is [0, 1]; the layout claims [1, 2] — every access
        // lands one word off, the second on the bracketing canary word.
        let p = rig(&["ll$x", "ll$y", "pad"], vec![1, 2], clean_body);
        let r = run(&p, &checked(CheckLevel::Basic)).unwrap();
        let san = r.sanitizer.unwrap();
        assert!(
            san.findings
                .iter()
                .any(|f| f.kind == FindingKind::CanaryClobber),
            "{:?}",
            san.findings
        );
    }

    #[test]
    fn out_of_bounds_layout_slot_is_fatal_at_access() {
        let p = rig(&["ll$x", "ll$y"], vec![0, 5], clean_body);
        let err = run(&p, &checked(CheckLevel::Full)).unwrap_err();
        assert_eq!(
            err,
            crate::VmError::CheckedAccessViolation { slot: 5, len: 2 }
        );
        assert!(!err.is_resource_limit());
    }

    #[test]
    fn partially_overlapping_regions_are_reported() {
        // Region A covers slots {0,1}, region B covers {1,2}: partial
        // overlap — two children sharing slot 1.
        let src = "class P1 { field x; field y; }
                   class P2 { field y; field z; }
                   class Rect { field a; field b; field c; }
                   fn main() { print 0; }";
        let mut p = compile(src).unwrap();
        let rect = p.class_by_name("Rect").unwrap();
        for (i, name) in ["a$x", "a$y", "a$z"].iter().enumerate() {
            let fid = p.classes[rect].own_fields[i];
            p.fields[fid].name = p.interner.fresh(name);
        }
        let x = p.interner.get("x").unwrap();
        let y = p.interner.get("y").unwrap();
        let z = p.interner.get("z").unwrap();
        let p1 = p.class_by_name("P1").unwrap();
        let p2 = p.class_by_name("P2").unwrap();
        let la = p.layouts.push(InlineLayout {
            child_class: p1,
            child_fields: vec![x, y],
            slots: vec![0, 1],
            array_kind: None,
        });
        let lb = p.layouts.push(InlineLayout {
            child_class: p2,
            child_fields: vec![y, z],
            slots: vec![1, 2],
            array_kind: None,
        });
        let site = p.fresh_site();
        let entry = p.entry;
        let m = &mut p.methods[entry];
        m.temp_count = 8;
        let bb = m.entry();
        m.blocks[bb].instrs = vec![
            Instr::New {
                dst: t(1),
                class: rect,
                args: vec![],
                site,
            },
            Instr::MakeInterior {
                dst: t(2),
                obj: t(1),
                layout: la,
            },
            Instr::MakeInterior {
                dst: t(3),
                obj: t(1),
                layout: lb,
            },
            Instr::Const {
                dst: t(4),
                value: ConstValue::Int(7),
            },
            Instr::Print { src: t(4) },
        ];
        m.blocks[bb].term = Terminator::Return(t(0));
        let r = run(&p, &checked(CheckLevel::Full)).unwrap();
        let san = r.sanitizer.unwrap();
        assert!(
            san.findings
                .iter()
                .any(|f| f.kind == FindingKind::RegionOverlap),
            "{:?}",
            san.findings
        );
    }

    #[test]
    fn same_region_different_layout_ids_break_identity() {
        let src = "class P { field x; }
                   class Rect { field a; }
                   fn main() { print 0; }";
        let mut p = compile(src).unwrap();
        let rect = p.class_by_name("Rect").unwrap();
        let fid = p.classes[rect].own_fields[0];
        p.fields[fid].name = p.interner.fresh("a$x");
        let x = p.interner.get("x").unwrap();
        let pc = p.class_by_name("P").unwrap();
        let mk = |p: &mut oi_ir::Program| {
            p.layouts.push(InlineLayout {
                child_class: pc,
                child_fields: vec![x],
                slots: vec![0],
                array_kind: None,
            })
        };
        let la = mk(&mut p);
        let lb = mk(&mut p);
        let site = p.fresh_site();
        let entry = p.entry;
        let m = &mut p.methods[entry];
        m.temp_count = 8;
        let bb = m.entry();
        m.blocks[bb].instrs = vec![
            Instr::New {
                dst: t(1),
                class: rect,
                args: vec![],
                site,
            },
            Instr::MakeInterior {
                dst: t(2),
                obj: t(1),
                layout: la,
            },
            Instr::MakeInterior {
                dst: t(3),
                obj: t(1),
                layout: lb,
            },
            Instr::Binary {
                dst: t(4),
                op: oi_ir::BinOp::RefEq,
                lhs: t(2),
                rhs: t(3),
            },
            Instr::Print { src: t(4) },
        ];
        m.blocks[bb].term = Terminator::Return(t(0));
        let r = run(&p, &checked(CheckLevel::Full)).unwrap();
        assert_eq!(r.output, "false\n", "the identity bug itself");
        let san = r.sanitizer.unwrap();
        assert!(
            san.findings
                .iter()
                .any(|f| f.kind == FindingKind::IdentityMismatch),
            "{:?}",
            san.findings
        );
    }

    #[test]
    fn report_json_is_schema_stable() {
        let p = rig(&["ll$x", "ll$y"], vec![0, 1], poison_body);
        let r = run(&p, &checked(CheckLevel::Full)).unwrap();
        let doc = oi_support::Json::parse(&r.sanitizer.unwrap().to_json().to_string()).unwrap();
        for key in ["level", "total_findings", "checks", "findings"] {
            assert!(doc.get(key).is_some(), "sanitizer.{key} missing");
        }
        let rows = doc
            .get("findings")
            .and_then(oi_support::Json::as_arr)
            .unwrap();
        let row = &rows[0];
        for key in [
            "kind",
            "instruction",
            "method",
            "address",
            "field",
            "detail",
        ] {
            assert!(row.get(key).is_some(), "finding.{key} missing");
        }
    }

    /// The sanitizer's hook surface, so the same event sequence can drive
    /// more than one implementation.
    trait Hooks {
        fn interior(&mut self, rig: &Rig, obj: ObjId, index: u32, layout: u32);
        #[allow(clippy::too_many_arguments)]
        fn access(
            &mut self,
            rig: &Rig,
            obj: ObjId,
            index: u32,
            layout: u32,
            j: usize,
            slot: usize,
            is_read: bool,
        ) -> Result<(), crate::VmError>;
        fn ctor(&mut self, rig: &Rig, obj: ObjId, index: u32, layout: u32);
        fn identity(&mut self, rig: &Rig, obj: ObjId, lhs: (u32, u32), rhs: (u32, u32));
        fn direct_write(&mut self, rig: &Rig, obj: ObjId, slot: usize);
        fn report(self) -> SanitizerReport;
    }

    impl Hooks for Sanitizer {
        fn interior(&mut self, rig: &Rig, obj: ObjId, index: u32, layout: u32) {
            self.on_interior(
                &rig.program,
                &rig.heap,
                &rig.layouts,
                None,
                "MakeInterior",
                obj,
                index,
                layout,
            );
        }

        fn access(
            &mut self,
            rig: &Rig,
            obj: ObjId,
            index: u32,
            layout: u32,
            j: usize,
            slot: usize,
            is_read: bool,
        ) -> Result<(), crate::VmError> {
            let instruction = if is_read { "GetField" } else { "SetField" };
            self.on_access(
                &rig.program,
                &rig.heap,
                &rig.layouts,
                None,
                instruction,
                obj,
                index,
                layout,
                j,
                slot,
                is_read,
            )
        }

        fn ctor(&mut self, rig: &Rig, obj: ObjId, index: u32, layout: u32) {
            self.on_ctor_enter(&rig.layouts, &rig.heap, obj, index, layout);
        }

        fn identity(&mut self, rig: &Rig, obj: ObjId, lhs: (u32, u32), rhs: (u32, u32)) {
            self.on_identity(&rig.program, &rig.heap, &rig.layouts, None, obj, lhs, rhs);
        }

        fn direct_write(&mut self, rig: &Rig, obj: ObjId, slot: usize) {
            self.on_direct_write(&rig.heap, obj, slot);
        }

        fn report(self) -> SanitizerReport {
            self.into_report()
        }
    }

    /// A hand-built heap and resolved-layout table for driving the hooks
    /// directly. It reaches paths the interpreter's own slot arithmetic
    /// never produces, such as an access outside its established region.
    /// Classes: `P1 { x, y }`, `P2 { y, z }` and `Rect`, whose fields get
    /// the post-restructure names passed to [`Rig::new`].
    struct Rig {
        program: oi_ir::Program,
        heap: Heap,
        layouts: Vec<ResolvedLayout>,
    }

    impl Rig {
        fn new(rect_fields: &[&str]) -> Rig {
            let decls: String = (0..rect_fields.len())
                .map(|i| format!("field f{i}; "))
                .collect();
            let src = format!(
                "class P1 {{ field x; field y; }}
                 class P2 {{ field y; field z; }}
                 class Rect {{ {decls}}}
                 fn main() {{ print 0; }}"
            );
            let mut program = compile(&src).unwrap();
            let rect = program.class_by_name("Rect").unwrap();
            for (i, name) in rect_fields.iter().enumerate() {
                let fid = program.classes[rect].own_fields[i];
                program.fields[fid].name = program.interner.fresh(name);
            }
            Rig {
                program,
                heap: Heap::new(1 << 20, 1),
                layouts: Vec::new(),
            }
        }

        fn layout(&mut self, class: &str, fields: &[&str], repr: Repr) -> u32 {
            let child_class = self.program.class_by_name(class).unwrap();
            let child_fields = fields
                .iter()
                .map(|f| self.program.interner.intern(f))
                .collect();
            self.layouts.push(ResolvedLayout {
                child_class,
                child_fields,
                repr,
            });
            self.layouts.len() as u32 - 1
        }

        fn object_layout(&mut self, class: &str, fields: &[&str], slots: &[usize]) -> u32 {
            let slots = slots.to_vec();
            self.layout(class, fields, Repr::Object { slots })
        }

        fn array_layout(
            &mut self,
            class: &str,
            fields: &[&str],
            kind: ArrayLayoutKind,
            width: usize,
            map: &[usize],
        ) -> u32 {
            let map = map.to_vec();
            self.layout(class, fields, Repr::Array { kind, width, map })
        }

        fn rect(&mut self) -> ObjId {
            let rect = self.program.class_by_name("Rect").unwrap();
            let n = self.program.layout_of(rect).len();
            self.heap.alloc(ObjKind::Instance(rect), n).unwrap()
        }

        fn inline_array(&mut self, layout: u32, len: usize, width: usize) -> ObjId {
            self.heap
                .alloc(ObjKind::ArrayInline { layout, len }, len * width)
                .unwrap()
        }
    }

    fn full() -> Sanitizer {
        Sanitizer::new(CheckLevel::Full).unwrap()
    }

    fn rendered(report: &SanitizerReport) -> Vec<String> {
        report.findings.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn coincident_nested_regions_are_legal() {
        // `b` holds the whole of `b$a`, which holds the whole of `b$a$x`:
        // the outer region's child field `a$x` refines the inner's `x`.
        let mut rig = Rig::new(&["b$a$x"]);
        let outer = rig.object_layout("P2", &["a$x"], &[0]);
        let inner = rig.object_layout("P1", &["x"], &[0]);
        let obj = rig.rect();
        let mut san = full();
        san.interior(&rig, obj, 0, outer);
        san.interior(&rig, obj, 0, inner);
        san.access(&rig, obj, 0, inner, 0, 0, false).unwrap();
        san.access(&rig, obj, 0, outer, 0, 0, true).unwrap();
        let report = san.report();
        assert!(report.is_clean(), "{:?}", rendered(&report));
        assert_eq!(report.checks, 4);
    }

    #[test]
    fn coincident_regions_of_different_classes_mismatch() {
        let mut rig = Rig::new(&["a$x"]);
        let first = rig.object_layout("P1", &["x"], &[0]);
        let second = rig.object_layout("P2", &["x"], &[0]);
        let obj = rig.rect();
        let mut san = full();
        san.interior(&rig, obj, 0, first);
        san.interior(&rig, obj, 0, second);
        // Re-establishing a known (layout, index) is not a new region.
        san.interior(&rig, obj, 0, second);
        let report = san.report();
        assert_eq!(
            rendered(&report),
            [
                "class-mismatch at MakeInterior in <entry> (field `<region>`, container @8): \
              region claims class `P2`, the same storage was established as class `P1`"
            ]
        );
        assert_eq!((report.total_findings, report.checks), (1, 3));
    }

    #[test]
    fn access_escaping_its_region_hits_the_canary_then_bounds() {
        let mut rig = Rig::new(&["pad", "ll$x", "ll$y", "tail", "far"]);
        let layout = rig.object_layout("P1", &["x", "y"], &[1, 2]);
        let obj = rig.rect();
        let mut san = full();
        san.interior(&rig, obj, 0, layout);
        san.access(&rig, obj, 0, layout, 0, 1, false).unwrap();
        // One word past the region: the bracketing canary.
        san.access(&rig, obj, 0, layout, 1, 3, false).unwrap();
        // One word before it: the other bracket.
        san.access(&rig, obj, 0, layout, 0, 0, true).unwrap();
        // Two words past it: a plain bounds escape.
        san.access(&rig, obj, 0, layout, 1, 4, false).unwrap();
        let report = san.report();
        assert_eq!(
            rendered(&report),
            [
                "canary-clobber at SetField in <entry> (field `y`, container @8): \
                 access to slot 3 outside established region [1, 2]",
                "canary-clobber at GetField in <entry> (field `x`, container @8): \
                 access to slot 0 outside established region [1, 2]",
                "poison-read at GetField in <entry> (field `x`, container @8): \
                 slot 0 read through an interior reference but never initialized \
                 (poison, not a stored nil)",
                "interior-bounds at SetField in <entry> (field `y`, container @8): \
                 access to slot 4 outside established region [1, 2]",
            ]
        );
        assert_eq!((report.total_findings, report.checks), (4, 5));
    }

    #[test]
    fn interleaved_array_regions_establish_and_partially_overlap() {
        let mut rig = Rig::new(&[]);
        let il = ArrayLayoutKind::Interleaved;
        let elems = rig.array_layout("P1", &["x", "y"], il, 2, &[0, 1]);
        // A map shifted by one word: element i claims [2i+1, 2i+2].
        let shifted = rig.array_layout("P2", &["y", "z"], il, 2, &[1, 2]);
        let arr = rig.inline_array(elems, 3, 2);
        let mut san = full();
        for i in 0..3 {
            san.interior(&rig, arr, i, elems);
            san.access(&rig, arr, i, elems, 1, 2 * i as usize + 1, false)
                .unwrap();
        }
        san.interior(&rig, arr, 1, shifted);
        // An element past the end still establishes its region.
        san.interior(&rig, arr, 3, elems);
        let report = san.report();
        assert_eq!(
            rendered(&report),
            [
                "canary-clobber at MakeInterior in <entry> (field `z`, container @8): \
                 array field map entry 2 overruns element width 2 into the bracketing element",
                "region-overlap at MakeInterior in <entry> (field `<region>`, container @8): \
                 region [3, 4] (class `P2`) partially overlaps established region [2, 3] \
                 (class `P1`)",
                "region-overlap at MakeInterior in <entry> (field `<region>`, container @8): \
                 region [3, 4] (class `P2`) partially overlaps established region [4, 5] \
                 (class `P1`)",
                "interior-bounds at MakeInterior in <entry> (field `[3]`, container @8): \
                 element index 3 outside inline array of length 3",
            ]
        );
        assert_eq!((report.total_findings, report.checks), (4, 8));
    }

    #[test]
    fn parallel_array_regions_establish_and_partially_overlap() {
        let mut rig = Rig::new(&[]);
        let par = ArrayLayoutKind::Parallel;
        // Element i of a 3-element parallel array lives at [i, 3 + i].
        let elems = rig.array_layout("P1", &["x", "y"], par, 2, &[0, 1]);
        let shifted = rig.array_layout("P2", &["y", "z"], par, 2, &[1, 2]);
        let arr = rig.inline_array(elems, 3, 2);
        let mut san = full();
        for i in 0..3 {
            san.interior(&rig, arr, i, elems);
            san.ctor(&rig, arr, i, elems);
            san.access(&rig, arr, i, elems, 0, i as usize, true)
                .unwrap();
        }
        // [3, 6]: shares slot 3 with element 0 and runs off the end.
        san.interior(&rig, arr, 0, shifted);
        // [4, 7]: shares slot 4 with element 1.
        san.interior(&rig, arr, 1, shifted);
        let report = san.report();
        assert_eq!(
            rendered(&report),
            [
                "canary-clobber at MakeInterior in <entry> (field `z`, container @8): \
                 array field map entry 2 overruns element width 2 into the bracketing element",
                "region-overlap at MakeInterior in <entry> (field `<region>`, container @8): \
                 region [3, 6] (class `P2`) partially overlaps established region [0, 3] \
                 (class `P1`)",
                "region-overlap at MakeInterior in <entry> (field `<region>`, container @8): \
                 region [4, 7] (class `P2`) partially overlaps established region [1, 4] \
                 (class `P1`)",
            ]
        );
        assert_eq!((report.total_findings, report.checks), (3, 8));
    }

    #[test]
    fn duplicate_and_out_of_range_layout_slots() {
        let mut rig = Rig::new(&["ll$x", "ll$y"]);
        let dup = rig.object_layout("P1", &["x", "y"], &[0, 0]);
        let single = rig.object_layout("P1", &["x"], &[0]);
        let wide = rig.object_layout("P1", &["x", "y"], &[0, 5]);
        let beyond = rig.object_layout("P2", &["y", "z"], &[5, 6]);
        let obj = rig.rect();
        let mut san = full();
        san.interior(&rig, obj, 0, dup);
        // [0] inside [0, 0]: nested, not an overlap.
        san.interior(&rig, obj, 0, single);
        san.interior(&rig, obj, 0, wide);
        // Shares only the out-of-range slot 5 with `wide`.
        san.interior(&rig, obj, 0, beyond);
        san.identity(&rig, obj, (dup, 0), (single, 0));
        san.identity(&rig, obj, (wide, 0), (wide, 1));
        let err = san.access(&rig, obj, 0, wide, 1, 5, true).unwrap_err();
        assert_eq!(
            err,
            crate::VmError::CheckedAccessViolation { slot: 5, len: 2 }
        );
        san.access(&rig, obj, 0, beyond, 0, 1, true).unwrap();
        let report = san.report();
        assert_eq!(
            rendered(&report),
            [
                "canary-clobber at MakeInterior in <entry> (field `ll$x`, container @8): \
                 slot 0 is the canary word bracketing the true region (child field `y` \
                 lives at slot 1)",
                "interior-bounds at MakeInterior in <entry> (field `y`, container @8): \
                 layout slot 5 outside container of 2 slot(s)",
                "interior-bounds at MakeInterior in <entry> (field `y`, container @8): \
                 layout slot 5 outside container of 2 slot(s)",
                "interior-bounds at MakeInterior in <entry> (field `z`, container @8): \
                 layout slot 6 outside container of 2 slot(s)",
                "region-overlap at MakeInterior in <entry> (field `<region>`, container @8): \
                 region [5, 6] (class `P2`) partially overlaps established region [0, 5] \
                 (class `P1`)",
                "identity-mismatch at Binary in <entry> (field `<region>`, container @8): \
                 two interior references into the same region [0, 5] of `P1` compare \
                 non-identical",
                "interior-bounds at GetField in <entry> (field `y`, container @8): \
                 interior access resolved to slot 5 outside container of 2 slot(s)",
                "interior-bounds at GetField in <entry> (field `y`, container @8): \
                 access to slot 1 outside established region [5, 6]",
                "poison-read at GetField in <entry> (field `y`, container @8): \
                 slot 1 read through an interior reference but never initialized \
                 (poison, not a stored nil)",
            ]
        );
        assert_eq!((report.total_findings, report.checks), (9, 8));
    }

    #[test]
    fn each_layout_is_validated_once_per_container_class() {
        let mut rig = Rig::new(&["a", "b"]);
        let layout = rig.object_layout("P1", &["x"], &[0]);
        let overrun = rig.array_layout("P1", &["x"], ArrayLayoutKind::Interleaved, 1, &[1]);
        let (first, second) = (rig.rect(), rig.rect());
        let arr = rig.inline_array(overrun, 2, 1);
        let mut san = Sanitizer::new(CheckLevel::Basic).unwrap();
        for obj in [first, second, first] {
            san.interior(&rig, obj, 0, layout);
        }
        for i in 0..2 {
            san.interior(&rig, arr, i, overrun);
        }
        // A container of the wrong kind is reported on every establishment.
        san.interior(&rig, arr, 0, layout);
        san.interior(&rig, arr, 1, layout);
        let report = san.report();
        assert_eq!(
            rendered(&report),
            [
                "slot-kind-mismatch at MakeInterior in <entry> (field `a`, container @8): \
                 slot 0 (`a`) was never restructured for child field `x`",
                "canary-clobber at MakeInterior in <entry> (field `x`, container @56): \
                 array field map entry 1 overruns element width 1 into the bracketing element",
                "slot-kind-mismatch at MakeInterior in <entry> (field `<container>`, \
                 container @56): layout promises object container, container is an inline array",
                "slot-kind-mismatch at MakeInterior in <entry> (field `<container>`, \
                 container @56): layout promises object container, container is an inline array",
            ]
        );
        assert_eq!((report.total_findings, report.checks), (4, 7));
    }

    /// The linear region list the index replaced, kept as the reference
    /// model for the differential test below. It delegates the `Basic`
    /// checks to a `Basic` sanitizer, shares the overlap, nesting and class
    /// logic, and keeps its own `Full` shadow state: one region list per
    /// container, searched front to back.
    mod reference {
        use super::super::*;
        use super::{Hooks, Rig};
        use std::collections::HashMap;

        struct Region {
            layout: u32,
            index: u32,
            child_class: ClassId,
            /// Sorted container slots the region covers.
            slots: Vec<usize>,
        }

        #[derive(Default)]
        struct Shadow {
            written: Vec<bool>,
            constructed: Vec<bool>,
            /// Established regions, in establishment order.
            regions: Vec<Region>,
        }

        impl Shadow {
            fn ensure(&mut self, len: usize) {
                if self.written.len() < len {
                    self.written.resize(len, false);
                    self.constructed.resize(len, false);
                }
            }
        }

        pub(super) struct Linear {
            san: Sanitizer,
            shadows: HashMap<ObjId, Shadow>,
        }

        impl Linear {
            pub(super) fn new() -> Self {
                Self {
                    san: Sanitizer::new(CheckLevel::Basic).unwrap(),
                    shadows: HashMap::new(),
                }
            }

            fn establish_region(&mut self, rig: &Rig, obj: ObjId, index: u32, layout: u32) {
                let (program, layouts) = (&rig.program, &rig.layouts[..]);
                let container = rig.heap.get(obj);
                let elem_len = container.array_len().unwrap_or(0);
                let child_class = layouts[layout as usize].child_class;
                let shadow = self.shadows.entry(obj).or_default();
                shadow.ensure(container.slots.len());
                if shadow
                    .regions
                    .iter()
                    .any(|r| r.layout == layout && r.index == index)
                {
                    return;
                }
                let slots = region_slots(layouts, layout, index, elem_len);
                let mut conflicts = Vec::new();
                for existing in &shadow.regions {
                    let shared = existing.slots.iter().filter(|s| slots.contains(s)).count();
                    if shared == 0 {
                        continue;
                    }
                    if existing.slots == slots {
                        if existing.child_class != child_class
                            && !Sanitizer::nested_refinement(
                                program,
                                layouts,
                                (existing.layout, existing.index),
                                layout,
                                index,
                                elem_len,
                            )
                        {
                            conflicts.push((
                                FindingKind::ClassMismatch,
                                format!(
                                    "region claims class `{}`, the same storage was \
                                     established as class `{}`",
                                    class_name(program, child_class),
                                    class_name(program, existing.child_class)
                                ),
                            ));
                        }
                        continue;
                    }
                    if shared != slots.len() && shared != existing.slots.len() {
                        conflicts.push((
                            FindingKind::RegionOverlap,
                            format!(
                                "region {:?} (class `{}`) partially overlaps established \
                                 region {:?} (class `{}`)",
                                slots,
                                class_name(program, child_class),
                                existing.slots,
                                class_name(program, existing.child_class)
                            ),
                        ));
                    }
                }
                shadow.regions.push(Region {
                    layout,
                    index,
                    child_class,
                    slots,
                });
                for (kind, detail) in conflicts {
                    self.san.record(
                        kind,
                        "MakeInterior",
                        program,
                        None,
                        container.addr,
                        "<region>".to_owned(),
                        detail,
                    );
                }
            }
        }

        impl Hooks for Linear {
            fn interior(&mut self, rig: &Rig, obj: ObjId, index: u32, layout: u32) {
                self.san.interior(rig, obj, index, layout);
                self.establish_region(rig, obj, index, layout);
            }

            fn access(
                &mut self,
                rig: &Rig,
                obj: ObjId,
                index: u32,
                layout: u32,
                j: usize,
                slot: usize,
                is_read: bool,
            ) -> Result<(), crate::VmError> {
                self.san.access(rig, obj, index, layout, j, slot, is_read)?;
                let instruction = if is_read { "GetField" } else { "SetField" };
                let program = &rig.program;
                let container = rig.heap.get(obj);
                let field = child_field_name(program, &rig.layouts[layout as usize], j);
                let shadow = self.shadows.entry(obj).or_default();
                shadow.ensure(container.slots.len());
                let mut escape = None;
                if let Some(region) = shadow
                    .regions
                    .iter()
                    .find(|r| r.layout == layout && r.index == index)
                {
                    if !region.slots.contains(&slot) {
                        let bracket = region.slots.iter().any(|s| s.abs_diff(slot) == 1);
                        escape = Some((
                            if bracket {
                                FindingKind::CanaryClobber
                            } else {
                                FindingKind::InteriorBounds
                            },
                            format!(
                                "access to slot {slot} outside established region {:?}",
                                region.slots
                            ),
                        ));
                    }
                }
                let poison = is_read && !shadow.written[slot] && !shadow.constructed[slot];
                if !is_read {
                    shadow.written[slot] = true;
                }
                let addr = container.addr;
                if let Some((kind, detail)) = escape {
                    let field = field.clone();
                    self.san
                        .record(kind, instruction, program, None, addr, field, detail);
                }
                if poison {
                    self.san.record(
                        FindingKind::PoisonRead,
                        instruction,
                        program,
                        None,
                        addr,
                        field,
                        format!(
                            "slot {slot} read through an interior reference but never \
                             initialized (poison, not a stored nil)"
                        ),
                    );
                }
                Ok(())
            }

            fn ctor(&mut self, rig: &Rig, obj: ObjId, index: u32, layout: u32) {
                let container = rig.heap.get(obj);
                let elem_len = container.array_len().unwrap_or(0);
                let slots = region_slots(&rig.layouts, layout, index, elem_len);
                let shadow = self.shadows.entry(obj).or_default();
                shadow.ensure(container.slots.len());
                for s in slots {
                    if s < shadow.constructed.len() {
                        shadow.constructed[s] = true;
                    }
                }
            }

            fn identity(&mut self, rig: &Rig, obj: ObjId, lhs: (u32, u32), rhs: (u32, u32)) {
                self.san.checks += 1;
                let container = rig.heap.get(obj);
                let elem_len = container.array_len().unwrap_or(0);
                let a = region_slots(&rig.layouts, lhs.0, lhs.1, elem_len);
                let b = region_slots(&rig.layouts, rhs.0, rhs.1, elem_len);
                if a == b {
                    let class = rig.layouts[lhs.0 as usize].child_class;
                    self.san.record(
                        FindingKind::IdentityMismatch,
                        "Binary",
                        &rig.program,
                        None,
                        container.addr,
                        "<region>".to_owned(),
                        format!(
                            "two interior references into the same region {a:?} of `{}` \
                             compare non-identical",
                            class_name(&rig.program, class)
                        ),
                    );
                }
            }

            fn direct_write(&mut self, rig: &Rig, obj: ObjId, slot: usize) {
                let len = rig.heap.get(obj).slots.len();
                let shadow = self.shadows.entry(obj).or_default();
                shadow.ensure(len);
                if slot < shadow.written.len() {
                    shadow.written[slot] = true;
                }
            }

            fn report(self) -> SanitizerReport {
                SanitizerReport {
                    level: CheckLevel::Full,
                    ..self.san.into_report()
                }
            }
        }
    }

    /// One hook call of a differential sequence.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Interior(usize, u32, u32),
        Access(usize, u32, u32, usize, usize, bool),
        Ctor(usize, u32, u32),
        Identity(usize, (u32, u32), (u32, u32)),
        DirectWrite(usize, usize),
    }

    /// A random rig over crafted layouts — duplicate and out-of-range
    /// slots, shared storage, array maps overrunning their width — plus a
    /// random hook sequence over two instances and two inline arrays.
    fn random_case(seed: u64) -> (Rig, Vec<ObjId>, Vec<Op>) {
        let mut rng = oi_support::rng::XorShift64::new(seed);
        let names = [
            "a$x", "a$y", "b$y", "b$z", "a$inline", "b$a$x", "c$x", "pad",
        ];
        let rect_len = 2 + rng.below(4);
        let rect_fields: Vec<&str> = (0..rect_len).map(|_| *rng.pick(&names)).collect();
        let mut rig = Rig::new(&rect_fields);
        let fields = ["x", "y", "z", "a$x", "inline"];
        let classes = ["P1", "P2"];
        for _ in 0..3 + rng.below(4) {
            let class = *rng.pick(&classes);
            let n = rng.below(4);
            let child: Vec<&str> = (0..n).map(|_| *rng.pick(&fields)).collect();
            if rng.chance(1, 2) {
                let slots: Vec<usize> = (0..n).map(|_| rng.below(rect_len + 2)).collect();
                rig.object_layout(class, &child, &slots);
            } else {
                let kind = if rng.chance(1, 2) {
                    ArrayLayoutKind::Interleaved
                } else {
                    ArrayLayoutKind::Parallel
                };
                let width = 1 + rng.below(3);
                let map: Vec<usize> = (0..n).map(|_| rng.below(width + 1)).collect();
                rig.array_layout(class, &child, kind, width, &map);
            }
        }
        let mut objs = vec![rig.rect(), rig.rect()];
        for _ in 0..2 {
            let (len, width) = (1 + rng.below(4), 1 + rng.below(3));
            objs.push(rig.inline_array(0, len, width));
        }
        let layout_count = rig.layouts.len();
        let mut ops = Vec::new();
        for _ in 0..80 {
            let o = rng.below(objs.len());
            let elems = rig.heap.get(objs[o]).array_len().unwrap_or(1);
            let index = rng.below(elems + 1) as u32;
            let layout = rng.below(layout_count) as u32;
            let slot_count = rig.heap.get(objs[o]).slots.len();
            ops.push(match rng.below(10) {
                0..=2 => Op::Interior(o, index, layout),
                3..=6 => {
                    let j = rng.below(rig.layouts[layout as usize].child_fields.len() + 1);
                    let elem_len = rig.heap.get(objs[o]).array_len().unwrap_or(0);
                    let resolved = &rig.layouts[layout as usize];
                    let slot = match slot_iter(resolved, index, elem_len).nth(j) {
                        Some(s) if rng.chance(3, 4) => s,
                        _ => rng.below(slot_count + 2),
                    };
                    Op::Access(o, index, layout, j, slot, rng.chance(1, 2))
                }
                7 => Op::Ctor(o, index, layout),
                8 => {
                    let other = (rng.below(layout_count) as u32, rng.below(elems + 1) as u32);
                    Op::Identity(o, (layout, index), other)
                }
                _ => Op::DirectWrite(o, rng.below(slot_count.max(1))),
            });
        }
        (rig, objs, ops)
    }

    fn drive<H: Hooks>(mut hooks: H, rig: &Rig, objs: &[ObjId], ops: &[Op]) -> SanitizerReport {
        for &op in ops {
            match op {
                Op::Interior(o, index, layout) => hooks.interior(rig, objs[o], index, layout),
                Op::Access(o, index, layout, j, slot, is_read) => {
                    // A fatal access ends a real run; the model keeps going.
                    let _ = hooks.access(rig, objs[o], index, layout, j, slot, is_read);
                }
                Op::Ctor(o, index, layout) => hooks.ctor(rig, objs[o], index, layout),
                Op::Identity(o, lhs, rhs) => hooks.identity(rig, objs[o], lhs, rhs),
                Op::DirectWrite(o, slot) => hooks.direct_write(rig, objs[o], slot),
            }
        }
        hooks.report()
    }

    #[test]
    fn region_index_agrees_with_the_linear_reference() {
        let mut kinds_seen = std::collections::HashSet::new();
        for seed in 1..=400 {
            let (rig, objs, ops) = random_case(seed);
            let indexed = drive(full(), &rig, &objs, &ops);
            let linear = drive(reference::Linear::new(), &rig, &objs, &ops);
            assert_eq!(indexed, linear, "seed {seed}: {ops:?}");
            kinds_seen.extend(indexed.findings.iter().map(|f| f.kind.name()));
        }
        // The generator reaches every finding the Full shadow produces.
        for kind in [
            FindingKind::InteriorBounds,
            FindingKind::CanaryClobber,
            FindingKind::RegionOverlap,
            FindingKind::ClassMismatch,
            FindingKind::PoisonRead,
            FindingKind::IdentityMismatch,
        ] {
            assert!(kinds_seen.contains(kind.name()), "never produced {kind:?}");
        }
    }

    #[test]
    fn check_levels_parse_round_trip() {
        for level in [CheckLevel::Off, CheckLevel::Basic, CheckLevel::Full] {
            assert_eq!(CheckLevel::parse(level.name()), Some(level));
        }
        assert_eq!(CheckLevel::parse("loud"), None);
    }
}
