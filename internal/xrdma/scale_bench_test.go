package xrdma

import (
	"runtime"
	"testing"

	"xrdma/internal/fabric"
)

// BenchmarkIdleChannelFootprint measures what one idle flyweight channel
// descriptor costs on the heap — the number the 4000-node fit depends on.
// ChannelTo allocates the descriptor and its registry slot but no QP, no
// window, no buffers and no gauges; bytes/conn is the end-to-end heap
// delta per descriptor including its share of the context's cid map.
func BenchmarkIdleChannelFootprint(b *testing.B) {
	w := newWorld(b, 2, func(_ int, cfg *Config) {
		cfg.QPsPerPeer = 2
		cfg.ChannelGaugeLimit = 8
	})
	ctx := w.ctxs[0]
	chans := make([]*Channel, 0, b.N)

	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := ctx.ChannelTo(fabric.NodeID(1), 7000)
		if err != nil {
			b.Fatal(err)
		}
		chans = append(chans, ch)
	}
	b.StopTimer()

	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(b.N), "bytes/conn")
	} else {
		b.ReportMetric(0, "bytes/conn")
	}
	runtime.KeepAlive(chans)
}

// BenchmarkMuxSharedQPSend times one request/response round trip on a
// channel multiplexed over a shared QP pool — the per-message cost of the
// demux plane (wire-header channel routing, SRQ recycling, window
// accounting) on top of the raw rnic send path. allocs/op is CI-gated at a
// fixed ceiling of 8: the two delivered Msgs, the three payloads rnic
// copies out of the wire (request, response, standalone ack), the echo
// server's Retain copy, and this loop's per-op response closure with the
// flag it captures.
func BenchmarkMuxSharedQPSend(b *testing.B) {
	w := newWorld(b, 2, muxKnobs(2))
	clients, servers := openMuxed(b, w, 0, 1, 6000, 4)
	for _, srv := range servers {
		echoServer(srv)
	}
	payload := make([]byte, 64)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := clients[i%len(clients)]
		var got bool
		err := ch.SendMsg(payload, 0, func(m *Msg, err error) {
			if err != nil {
				b.Fatalf("response err: %v", err)
			}
			got = true
		})
		if err != nil {
			b.Fatal(err)
		}
		w.eng.Run()
		if !got {
			b.Fatal("no response")
		}
	}
}

// BenchmarkClassicRPC times one request/response round trip on a classic
// (exclusive-QP) channel: send, poll, CQE dispatch, delayed ack and reply
// through the middleware on top of the rnic. The response callback is
// hoisted out of the loop and the server echoes the received bytes
// without copying, so allocs/op counts only what the stack allocates per
// RPC: the two delivered Msgs and the three payloads rnic copies out of
// the wire (request, response, standalone ack). CI gates it at that
// fixed ceiling of 5.
func BenchmarkClassicRPC(b *testing.B) {
	w := newWorld(b, 2, nil)
	cli, srv := w.connect(b, 0, 1, 5000)
	srv.OnMessage(func(m *Msg) {
		if err := m.Reply(m.Data, m.Len); err != nil {
			b.Fatalf("reply: %v", err)
		}
	})
	payload := make([]byte, 64)
	got := 0
	done := func(m *Msg, err error) {
		if err != nil {
			b.Fatalf("response err: %v", err)
		}
		got++
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.SendMsg(payload, 0, done); err != nil {
			b.Fatal(err)
		}
		w.eng.Run()
		if got != i+1 {
			b.Fatal("no response")
		}
	}
}
