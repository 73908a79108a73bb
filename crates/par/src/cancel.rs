//! Cooperative cancellation for SPMD regions.
//!
//! A [`CancelToken`] is an atomic flag plus a human-readable reason.
//! Tripping it never preempts anything: running code observes the flag
//! at *checkpoints* — [`Barrier`](crate::Barrier) waits (via trip hooks
//! that poison the region barrier, waking every blocked waiter) and
//! explicit [`check_current`] calls between units of work — and unwinds
//! with a [`Cancelled`] panic payload that the SPMD runtimes recognize
//! as an orderly abort rather than a failure.
//!
//! Tokens form a tree: [`CancelToken::child`] makes a token that trips
//! when its parent trips but can also be tripped alone (a per-work-item
//! deadline under a whole-sweep token). [`CancelToken::tripped_directly`]
//! distinguishes "my own deadline fired" from "the whole sweep was
//! cancelled".
//!
//! Propagation is by *ambient token*: a runtime installs the token for
//! the current thread with [`set_current`] (restored on scope exit),
//! and leaf code — deep inside a plan interpreter or a fault hook —
//! polls [`check_current`] without threading a handle through every
//! signature. [`crate::spmd`] forwards the caller's ambient token into
//! every spawned region thread.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Panic payload (and [`SpmdPool::run_cancellable`] error) of an
/// orderly cancellation: the region stopped because its token tripped,
/// not because anything failed.
///
/// [`SpmdPool::run_cancellable`]: crate::SpmdPool::run_cancellable
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cancelled {
    /// The reason recorded by the first [`CancelToken::trip`].
    pub reason: String,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cancelled: {}", self.reason)
    }
}

/// A registered trip hook; removed by id when its guard drops.
struct Hook {
    id: u64,
    f: Box<dyn Fn() + Send + Sync>,
}

static NEXT_HOOK_ID: AtomicU64 = AtomicU64::new(0);

struct Inner {
    tripped: AtomicBool,
    reason: Mutex<Option<String>>,
    hooks: Mutex<Vec<Hook>>,
    children: Mutex<Vec<Weak<Inner>>>,
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn new(parent: Option<Arc<Inner>>) -> Self {
        Inner {
            tripped: AtomicBool::new(false),
            reason: Mutex::new(None),
            hooks: Mutex::new(Vec::new()),
            children: Mutex::new(Vec::new()),
            parent,
        }
    }

    fn is_tripped(&self) -> bool {
        if self.tripped.load(Ordering::Acquire) {
            return true;
        }
        match &self.parent {
            Some(p) => p.is_tripped(),
            None => false,
        }
    }

    fn reason(&self) -> Option<String> {
        let own = self.reason.lock().unwrap_or_else(|e| e.into_inner()).clone();
        own.or_else(|| self.parent.as_ref().and_then(|p| p.reason()))
    }

    /// Run this token's hooks and cascade into live descendants (their
    /// `tripped` flags stay untouched — chaining happens through
    /// `parent` on reads — but their hooks must fire so e.g. a barrier
    /// guarding a child's region is poisoned by a parent-level trip).
    fn fire_hooks(&self) {
        {
            let hooks = self.hooks.lock().unwrap_or_else(|e| e.into_inner());
            for h in hooks.iter() {
                (h.f)();
            }
        }
        let children = self.children.lock().unwrap_or_else(|e| e.into_inner());
        for c in children.iter() {
            if let Some(c) = c.upgrade() {
                c.fire_hooks();
            }
        }
    }
}

/// A cancellation flag shared by cloning; see the module docs.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("tripped", &self.is_tripped())
            .field("reason", &self.reason())
            .finish()
    }
}

impl CancelToken {
    /// A fresh, untripped token with no parent.
    pub fn new() -> Self {
        CancelToken { inner: Arc::new(Inner::new(None)) }
    }

    /// A child token: tripped whenever `self` is tripped, but also
    /// trippable on its own (per-item deadlines under a sweep token).
    pub fn child(&self) -> CancelToken {
        let inner = Arc::new(Inner::new(Some(Arc::clone(&self.inner))));
        let mut children = self.inner.children.lock().unwrap_or_else(|e| e.into_inner());
        // Prune children that finished their work (only their Weak is
        // left) so a long-lived sweep token doesn't accumulate one slot
        // per completed item.
        children.retain(|c| c.strong_count() > 0);
        children.push(Arc::downgrade(&inner));
        drop(children);
        CancelToken { inner }
    }

    /// Trip the token: record `reason` (first trip wins), run every
    /// registered hook, and cascade into child tokens' hooks. Returns
    /// `false` if this token was already tripped directly.
    pub fn trip(&self, reason: &str) -> bool {
        if self.inner.tripped.swap(true, Ordering::AcqRel) {
            return false;
        }
        {
            let mut r = self.inner.reason.lock().unwrap_or_else(|e| e.into_inner());
            if r.is_none() {
                *r = Some(reason.to_string());
            }
        }
        self.inner.fire_hooks();
        true
    }

    /// Whether this token or any ancestor has been tripped.
    pub fn is_tripped(&self) -> bool {
        self.inner.is_tripped()
    }

    /// Whether *this* token was tripped itself (ignoring ancestors) —
    /// how a supervisor tells "this item's deadline fired" apart from
    /// "the whole sweep was cancelled".
    pub fn tripped_directly(&self) -> bool {
        self.inner.tripped.load(Ordering::Acquire)
    }

    /// The recorded trip reason (this token's, else the nearest tripped
    /// ancestor's).
    pub fn reason(&self) -> Option<String> {
        self.inner.reason()
    }

    /// The [`Cancelled`] payload for this token's current state.
    pub fn cancelled(&self) -> Cancelled {
        Cancelled { reason: self.reason().unwrap_or_else(|| "cancelled".into()) }
    }

    /// Unwind with a [`Cancelled`] payload if the token (or an
    /// ancestor) tripped. The designated checkpoint call for code
    /// holding a token. Uses `resume_unwind` rather than `panic_any` so
    /// an orderly cancellation does not invoke the panic hook (no
    /// backtrace noise for every cancelled worker); catchers see the
    /// same `Box<dyn Any>` payload either way.
    pub fn check(&self) {
        if self.is_tripped() {
            std::panic::resume_unwind(Box::new(self.cancelled()));
        }
    }

    /// Register `f` to run when the token trips (or immediately, if it
    /// already has). Hooks must be idempotent: a trip racing with
    /// registration may invoke the hook twice. The registration lasts
    /// until the returned guard is dropped.
    pub fn on_trip(&self, f: impl Fn() + Send + Sync + 'static) -> TripHookGuard {
        let id = NEXT_HOOK_ID.fetch_add(1, Ordering::Relaxed);
        self.inner
            .hooks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Hook { id, f: Box::new(f) });
        if self.is_tripped() {
            // Tripped before (or while) registering: the trip's own
            // hook pass may have missed this hook, so fire it here.
            let hooks = self.inner.hooks.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(h) = hooks.iter().find(|h| h.id == id) {
                (h.f)();
            }
        }
        TripHookGuard { inner: Arc::clone(&self.inner), id }
    }
}

/// Unregisters a trip hook on drop (see [`CancelToken::on_trip`]).
pub struct TripHookGuard {
    inner: Arc<Inner>,
    id: u64,
}

impl Drop for TripHookGuard {
    fn drop(&mut self) {
        self.inner.hooks.lock().unwrap_or_else(|e| e.into_inner()).retain(|h| h.id != self.id);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// The ambient token installed for this thread, if any.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install `token` as this thread's ambient token; the previous token is
/// restored when the returned guard drops. Pass `None` to clear.
pub fn set_current(token: Option<CancelToken>) -> CurrentGuard {
    let prev = CURRENT.with(|c| c.replace(token));
    CurrentGuard { prev }
}

/// Restores the previously ambient token on drop (see [`set_current`]).
pub struct CurrentGuard {
    prev: Option<CancelToken>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Whether this thread's ambient token (if any) has tripped. Cheap
/// enough to poll from a wait loop.
pub fn current_is_tripped() -> bool {
    CURRENT.with(|c| c.borrow().as_ref().is_some_and(|t| t.is_tripped()))
}

/// Checkpoint against the ambient token: unwind with [`Cancelled`] if
/// it has tripped (via `resume_unwind`, bypassing the panic hook — see
/// [`CancelToken::check`]); no-op when no token is installed. Plan
/// interpreters and fault hooks call this between units of work.
pub fn check_current() {
    let payload =
        CURRENT.with(|c| c.borrow().as_ref().and_then(|t| t.is_tripped().then(|| t.cancelled())));
    if let Some(p) = payload {
        std::panic::resume_unwind(Box::new(p));
    }
}

/// Counted interest in one shared piece of work — the bridge between
/// many client lifetimes and one coalesced execution. `machine::serve`
/// gives every in-flight point an `InterestSet` over the flight's
/// [`CancelToken`]: each request that wants the point [`join`]s, each
/// disconnect/deadline [`release`]s (or just drops) its [`Interest`],
/// and the token trips with the set's reason only when the *last*
/// holder lets go. One live follower keeps the flight running even
/// after the leader's client died; when everyone is gone the flight
/// stops mid-plan-execution instead of simulating into the void.
///
/// Releasing is idempotent per handle and `Drop` releases, so panics
/// and early returns on the request path can never leak interest. The
/// trip fires exactly once, on the 1→0 transition; a `join` after that
/// hands out an interest in already-tripped work (the caller observes
/// it through the token, as with any tripped token).
///
/// [`join`]: InterestSet::join
/// [`release`]: Interest::release
#[derive(Clone)]
pub struct InterestSet {
    inner: Arc<InterestInner>,
}

struct InterestInner {
    token: CancelToken,
    reason: String,
    outstanding: AtomicUsize,
}

impl InterestSet {
    /// A set that trips `token` with `reason` when the last outstanding
    /// [`Interest`] releases.
    pub fn new(token: CancelToken, reason: impl Into<String>) -> InterestSet {
        InterestSet {
            inner: Arc::new(InterestInner {
                token,
                reason: reason.into(),
                outstanding: AtomicUsize::new(0),
            }),
        }
    }

    /// Register one party's interest. The returned handle releases on
    /// drop.
    pub fn join(&self) -> Interest {
        self.inner.outstanding.fetch_add(1, Ordering::AcqRel);
        Interest { set: Arc::clone(&self.inner), released: AtomicBool::new(false) }
    }

    /// Number of unreleased interests right now (racy by nature; for
    /// introspection and tests).
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Ordering::Acquire)
    }

    /// The token this set trips when abandoned.
    pub fn token(&self) -> &CancelToken {
        &self.inner.token
    }
}

/// One party's stake in an [`InterestSet`]; see there.
pub struct Interest {
    set: Arc<InterestInner>,
    released: AtomicBool,
}

impl Interest {
    /// Release this stake (idempotent). The set's token trips iff this
    /// was the last outstanding interest.
    pub fn release(&self) {
        if self.released.swap(true, Ordering::AcqRel) {
            return;
        }
        if self.set.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.set.token.trip(&self.set.reason);
        }
    }
}

impl Drop for Interest {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn first_trip_wins_and_records_reason() {
        let t = CancelToken::new();
        assert!(!t.is_tripped());
        assert_eq!(t.reason(), None);
        assert!(t.trip("deadline"));
        assert!(!t.trip("second"), "second trip must report already-tripped");
        assert!(t.is_tripped());
        assert_eq!(t.reason().as_deref(), Some("deadline"));
        assert_eq!(t.cancelled().to_string(), "cancelled: deadline");
    }

    #[test]
    fn check_panics_with_cancelled_payload() {
        let t = CancelToken::new();
        t.check(); // untripped: no-op
        t.trip("stop");
        let p = std::panic::catch_unwind(|| t.check()).expect_err("must panic");
        let c = p.downcast_ref::<Cancelled>().expect("payload must be Cancelled");
        assert_eq!(c.reason, "stop");
    }

    #[test]
    fn child_chains_to_parent_but_keeps_direct_flag() {
        let parent = CancelToken::new();
        let child = parent.child();
        parent.trip("sweep cancelled");
        assert!(child.is_tripped(), "parent trip must reach the child");
        assert!(!child.tripped_directly());
        assert_eq!(child.reason().as_deref(), Some("sweep cancelled"));

        let parent2 = CancelToken::new();
        let child2 = parent2.child();
        child2.trip("point deadline");
        assert!(child2.tripped_directly());
        assert!(!parent2.is_tripped(), "child trip must not escape to the parent");
    }

    #[test]
    fn hooks_fire_on_trip_and_cascade_to_children() {
        let fired = Arc::new(AtomicUsize::new(0));
        let parent = CancelToken::new();
        let child = parent.child();
        let f1 = Arc::clone(&fired);
        let _g1 = parent.on_trip(move || {
            f1.fetch_add(1, Ordering::SeqCst);
        });
        let f2 = Arc::clone(&fired);
        let _g2 = child.on_trip(move || {
            f2.fetch_add(10, Ordering::SeqCst);
        });
        parent.trip("x");
        assert_eq!(fired.load(Ordering::SeqCst), 11, "parent and child hooks must both fire");
    }

    #[test]
    fn registering_on_tripped_token_fires_immediately() {
        let t = CancelToken::new();
        t.trip("early");
        let fired = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&fired);
        let _g = t.on_trip(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropped_hook_guard_unregisters() {
        let fired = Arc::new(AtomicUsize::new(0));
        let t = CancelToken::new();
        let f = Arc::clone(&fired);
        drop(t.on_trip(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        t.trip("x");
        assert_eq!(fired.load(Ordering::SeqCst), 0, "dropped hook must not fire");
    }

    #[test]
    fn ambient_token_scopes_nest_and_restore() {
        assert!(current().is_none());
        let a = CancelToken::new();
        {
            let _ga = set_current(Some(a.clone()));
            assert!(current().is_some());
            check_current(); // untripped: no-op
            let b = CancelToken::new();
            {
                let _gb = set_current(Some(b.clone()));
                b.trip("inner");
                assert!(current_is_tripped());
                let p = std::panic::catch_unwind(check_current).expect_err("must panic");
                assert_eq!(p.downcast_ref::<Cancelled>().unwrap().reason, "inner");
            }
            // Inner scope gone: back to the (untripped) outer token.
            assert!(!current_is_tripped());
        }
        assert!(current().is_none());
    }

    #[test]
    fn completed_children_are_pruned() {
        let parent = CancelToken::new();
        for _ in 0..100 {
            let c = parent.child();
            drop(c);
        }
        let _live = parent.child();
        let n = parent.inner.children.lock().unwrap().len();
        assert!(n <= 2, "dead child slots must be pruned, found {n}");
    }

    #[test]
    fn interest_trips_only_when_the_last_holder_releases() {
        let t = CancelToken::new();
        let set = InterestSet::new(t.clone(), "abandoned");
        let a = set.join();
        let b = set.join();
        assert_eq!(set.outstanding(), 2);
        a.release();
        a.release(); // idempotent: must not double-decrement
        assert!(!t.is_tripped(), "one live follower keeps the flight running");
        drop(b); // drop releases
        assert!(t.is_tripped());
        assert_eq!(t.reason().as_deref(), Some("abandoned"));
    }

    #[test]
    fn interest_drop_after_release_is_inert() {
        let t = CancelToken::new();
        let set = InterestSet::new(t.clone(), "abandoned");
        let a = set.join();
        let b = set.join();
        a.release();
        drop(a); // already released: the drop must not count again
        assert!(!t.is_tripped());
        drop(set); // the set itself holds no interest
        assert!(!t.is_tripped());
        drop(b);
        assert!(t.is_tripped());
    }

    #[test]
    fn interest_abandonment_cascades_through_the_token_tree() {
        // serve chains flight tokens off the server token; a flight
        // abandoned by all clients must stop plan execution running
        // under a *child* of the flight token.
        let server = CancelToken::new();
        let flight = server.child();
        let set = InterestSet::new(flight.clone(), "abandoned");
        let exec = flight.child();
        let only = set.join();
        drop(only);
        assert!(exec.is_tripped(), "abandonment must reach execution children");
        assert!(!server.is_tripped(), "but never the server token");
    }

    #[test]
    fn concurrent_releases_trip_exactly_once() {
        let t = CancelToken::new();
        let set = InterestSet::new(t.clone(), "abandoned");
        let handles: Vec<_> = (0..16).map(|_| set.join()).collect();
        std::thread::scope(|s| {
            for h in handles {
                s.spawn(move || h.release());
            }
        });
        assert!(t.is_tripped());
        assert_eq!(set.outstanding(), 0);
    }
}
