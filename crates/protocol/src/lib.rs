//! # dresar-protocol
//!
//! The quiescent-state legality rules of the coherence-protocol family
//! behind the dresar simulator: MSI (the paper's protocol), MESI, MOESI and
//! the directoryless-shared-LLC (DLS) read baseline.
//!
//! The protocols themselves are not defined here. Each rule lives once, in
//! the controller code that executes it (DESIGN.md §15 lists where). This
//! crate answers the one question the end-of-run coherence audit asks:
//! which (line state, home-directory claim) pairs may a quiesced holder be
//! in under a given protocol? See [`holder_allowed`].
//!
//! Which member of the family runs is named by
//! [`dresar_types::Protocol`], re-exported here.

#![warn(missing_docs)]

use dresar_cache::LineState;
pub use dresar_types::Protocol;

/// What the home directory claims about one (block, holder) pair, as seen
/// by the end-of-run coherence audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeClaim {
    /// The home believes nobody caches the block.
    Uncached,
    /// The home tracks the block as SHARED; the flag says whether this
    /// holder is in the sharer vector.
    SharedTracked(bool),
    /// The home books an exclusive owner; the flag says whether this
    /// holder is that owner.
    ModifiedBy(bool),
    /// The home books a MOESI owner plus sharers.
    OwnedBy {
        /// This holder is the recorded owner.
        is_owner: bool,
        /// This holder is in the sharer vector (owners count as tracked).
        tracked: bool,
    },
}

/// Whether a quiesced holder in `state` is compatible with what the home
/// claims, under protocol `p`. This is the per-protocol generalization of
/// the audit's old holder-coverage rule:
///
/// * MSI: SHARED holders must be tracked sharers, MODIFIED holders must be
///   the recorded owner.
/// * MESI: additionally, an EXCLUSIVE holder is legal exactly when the
///   home books it as owner (E is clean, so the directory cannot tell E
///   from M — by design).
/// * MOESI: additionally, OWNED holders must be the recorded owner of an
///   `OwnedBy` entry, whose sharers hold SHARED.
/// * DLS: SHARED holders may be *untracked* — the bypass serves readers
///   the directory never records; that staleness is the documented cost
///   of the baseline.
pub fn holder_allowed(p: Protocol, state: LineState, claim: HomeClaim) -> bool {
    match (state, claim) {
        (LineState::Shared, HomeClaim::SharedTracked(tracked)) => tracked || p.home_read_bypass(),
        (LineState::Shared, HomeClaim::OwnedBy { tracked, .. }) => tracked,
        // The DLS stale-shared caveat: a bypass-served copy outlives the
        // directory's knowledge of it under any home state.
        (LineState::Shared, HomeClaim::ModifiedBy(_) | HomeClaim::Uncached) => p.home_read_bypass(),
        (LineState::Modified, HomeClaim::ModifiedBy(is_owner)) => is_owner,
        (LineState::Exclusive, HomeClaim::ModifiedBy(is_owner)) => {
            is_owner && p.exclusive_read_fill()
        }
        (LineState::Owned, HomeClaim::OwnedBy { is_owner, .. }) => {
            is_owner && p.owner_retains_on_read()
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holder_rules_differ_exactly_where_the_protocols_do() {
        use HomeClaim as C;
        // MSI: tracked sharers and the recorded owner only.
        assert!(holder_allowed(Protocol::Msi, LineState::Shared, C::SharedTracked(true)));
        assert!(!holder_allowed(Protocol::Msi, LineState::Shared, C::SharedTracked(false)));
        assert!(holder_allowed(Protocol::Msi, LineState::Modified, C::ModifiedBy(true)));
        assert!(!holder_allowed(Protocol::Msi, LineState::Modified, C::ModifiedBy(false)));
        assert!(!holder_allowed(Protocol::Msi, LineState::Exclusive, C::ModifiedBy(true)));
        // MESI: the owner record may cover a clean E holder.
        assert!(holder_allowed(Protocol::Mesi, LineState::Exclusive, C::ModifiedBy(true)));
        assert!(!holder_allowed(Protocol::Mesi, LineState::Exclusive, C::ModifiedBy(false)));
        assert!(!holder_allowed(
            Protocol::Mesi,
            LineState::Owned,
            C::OwnedBy { is_owner: true, tracked: true }
        ));
        // MOESI: O holders own OwnedBy entries; their sharers hold S.
        assert!(holder_allowed(
            Protocol::Moesi,
            LineState::Owned,
            C::OwnedBy { is_owner: true, tracked: true }
        ));
        assert!(!holder_allowed(
            Protocol::Moesi,
            LineState::Owned,
            C::OwnedBy { is_owner: false, tracked: true }
        ));
        assert!(holder_allowed(
            Protocol::Moesi,
            LineState::Shared,
            C::OwnedBy { is_owner: false, tracked: true }
        ));
        // DLS: untracked SHARED copies are the documented bypass cost.
        assert!(holder_allowed(Protocol::Dls, LineState::Shared, C::ModifiedBy(false)));
        assert!(holder_allowed(Protocol::Dls, LineState::Shared, C::SharedTracked(false)));
        assert!(holder_allowed(Protocol::Dls, LineState::Shared, C::Uncached));
        assert!(!holder_allowed(Protocol::Msi, LineState::Shared, C::Uncached));
        // Nobody lets a dirty holder go unrecorded.
        for p in Protocol::ALL {
            assert!(!holder_allowed(p, LineState::Modified, C::Uncached), "{p}");
            assert!(!holder_allowed(p, LineState::Owned, C::SharedTracked(true)), "{p}");
        }
    }
}
