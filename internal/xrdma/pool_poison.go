//go:build xrdmapoison

package xrdma

// Built with -tags xrdmapoison, every pooled send record, wire buffer,
// response waiter and CQE dispatch slot is overwritten with garbage when
// it is released, and checked on reuse. A read after release sees the
// garbage — a poisoned record or slot has no channel or context, so a
// stale hook or callback panics — and a write after release trips the
// check on reuse.
//
//	go test -tags xrdmapoison ./internal/xrdma/ ./internal/bench/
const poisonPools = true
