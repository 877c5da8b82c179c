//! Span self-time arithmetic: a span's self time is its duration minus
//! the part of its interval its children cover.

use perfbench::trace::{self_times, Fold, Name, Span, NO_PARENT};

fn span(name: Name, parent: u32, start: u64, end: u64) -> Span {
    Span {
        name,
        parent,
        burst: 0,
        start,
        end,
    }
}

#[test]
fn nested_spans_subtract_their_children_only() {
    // pump [0, 100) ⊃ tx [10, 30), tx [50, 60); sweep [100, 140) ⊃ rx [105, 135)
    let spans = [
        span(Name::ServerPump, NO_PARENT, 0, 100),
        span(Name::UdpTx, 0, 10, 30),
        span(Name::UdpTx, 0, 50, 60),
        span(Name::DemuxSweep, NO_PARENT, 100, 140),
        span(Name::UdpRx, 3, 105, 135),
    ];
    let mut own = [0; 5];
    self_times(&spans, &mut own);
    assert_eq!(own, [70, 20, 10, 10, 30]);

    let mut fold = Fold::default();
    fold.add(&spans, &mut own);
    assert_eq!(fold.total(Name::ServerPump), 100);
    assert_eq!(fold.own(Name::ServerPump), 70);
    assert_eq!(fold.total(Name::UdpTx), 30);
    assert_eq!(fold.own(Name::DemuxSweep), 10);
    assert_eq!(fold.top_ns, 140, "only top-level spans explain wall time");
    // Self times partition the top-level time exactly.
    let own_sum: u64 = fold.self_ns.iter().sum();
    assert_eq!(own_sum, fold.top_ns);
}

#[test]
fn grandchildren_are_charged_to_their_own_parent() {
    let spans = [
        span(Name::PathSend, NO_PARENT, 0, 100),
        span(Name::ServerPump, 0, 10, 90),
        span(Name::UdpTx, 1, 20, 50),
    ];
    let mut own = [0; 3];
    self_times(&spans, &mut own);
    assert_eq!(own, [20, 50, 30]);
}

#[test]
fn zero_width_spans_have_zero_self_time_and_cover_nothing() {
    let spans = [
        span(Name::RecvSweep, NO_PARENT, 40, 40),
        span(Name::UdpRx, 0, 40, 40),
        span(Name::RecvPoll, NO_PARENT, 50, 80),
        span(Name::UdpRx, 2, 60, 60),
    ];
    let mut own = [0; 4];
    self_times(&spans, &mut own);
    assert_eq!(own, [0, 0, 30, 0]);
}

#[test]
fn a_child_covering_its_whole_parent_leaves_no_self_time() {
    let spans = [
        span(Name::DemuxSweep, NO_PARENT, 5, 25),
        span(Name::UdpRx, 0, 5, 25),
    ];
    let mut own = [0; 2];
    self_times(&spans, &mut own);
    assert_eq!(own, [0, 20]);
}

#[test]
fn a_child_reaching_past_its_parent_is_clipped_to_the_parent() {
    let spans = [
        span(Name::ServerPump, NO_PARENT, 10, 20),
        span(Name::UdpTx, 0, 15, 30),
    ];
    let mut own = [0; 2];
    self_times(&spans, &mut own);
    assert_eq!(own, [5, 15]);
}
