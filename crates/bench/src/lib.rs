//! The Criterion benches of routelab; this library holds no code.
//!
//! The benches cover every routelab component (DESIGN.md experiment E12):
//!
//! * `engine_step` — Definition 2.3 execution throughput,
//! * `closure` — deriving the Figure 3/4 bounds matrix,
//! * `transforms` — the realization constructions of Sec. 3.2,
//! * `explorer` — exhaustive state-space analysis,
//! * `solver` — stable-assignment enumeration and dispute-wheel detection,
//! * `montecarlo` — randomized-schedule simulation throughput.
