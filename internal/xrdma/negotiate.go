package xrdma

import (
	"encoding/binary"

	"xrdma/internal/fabric"
	"xrdma/internal/telemetry"
)

// Protocol version negotiation (hot-upgrade plane). X-RDMA's header was
// designed so the middleware can roll through a fleet without a
// synchronized restart: mixed-version clusters are a first-class operating
// mode. The hello below rides the CM private data of every channel (and
// shared-QP) establishment when the local build offers more than the
// baseline version; both sides settle on the highest common version and
// the intersection of their capability bitmaps, and every optional wire
// extension is gated per-channel on the settled caps — a v2 node emits v1
// frames to v1 peers, and a disjoint version range is a counted,
// flight-logged negotiation failure instead of a corruption-shaped error.

// Capability bits advertised in the hello. A bit names an optional wire
// extension (or verb family) the sender is willing to receive; a channel
// only emits an extension when the peer advertised the matching bit.
const (
	capBlame     uint32 = 1 << iota // blame stage-mirror extension on responses
	capTenant                       // tenant label extension on data frames
	capOneSided                     // one-sided verbs (WIN_GRANT / READ / WRITE+imm)
	capDrainHint                    // v2-only: drain state piggybacked in hellos
)

// baselineCaps is what a peer that sent no hello (a pre-negotiation build,
// or one configured to the legacy v1 plane) is assumed to accept: every
// extension that existed before negotiation did. capDrainHint is excluded
// — it is the v2 carrot, only ever granted by an explicit hello.
const baselineCaps uint32 = capBlame | capTenant | capOneSided

const (
	chanHelloMagic = 0x5856 // "XV" — distinct from mux (0x5158) and recovery (0x5243) hellos
	chanHelloSize  = 8
)

// chanHello is the negotiation offer: the version range this build speaks
// and the extensions it accepts. The reply reuses the same shape with
// minVer == maxVer == the settled version and caps == the intersection.
type chanHello struct {
	minVer, maxVer uint8
	caps           uint32
}

func encodeChanHello(h chanHello) []byte {
	b := make([]byte, chanHelloSize)
	binary.LittleEndian.PutUint16(b[0:], chanHelloMagic)
	b[2] = h.minVer
	b[3] = h.maxVer
	binary.LittleEndian.PutUint32(b[4:], h.caps)
	return b
}

// parseChanHello recognizes a negotiation hello in CM private data. A nil
// or foreign blob is not an error — it marks a legacy peer and the caller
// falls back to v1 + baselineCaps.
func parseChanHello(b []byte) (chanHello, bool) {
	if len(b) < chanHelloSize || binary.LittleEndian.Uint16(b[0:]) != chanHelloMagic {
		return chanHello{}, false
	}
	return chanHello{
		minVer: b[2],
		maxVer: b[3],
		caps:   binary.LittleEndian.Uint32(b[4:]),
	}, true
}

// negotiate settles two offers: the highest version inside both ranges and
// the AND of the capability sets. ok is false when the ranges are disjoint
// — the caller must refuse the connection loudly (never silently downgrade
// below a peer's stated minimum).
func negotiate(a, b chanHello) (ver uint8, caps uint32, ok bool) {
	hi := a.maxVer
	if b.maxVer < hi {
		hi = b.maxVer
	}
	lo := a.minVer
	if b.minVer > lo {
		lo = b.minVer
	}
	if hi < lo {
		return 0, 0, false
	}
	return hi, a.caps & b.caps, true
}

// protoRange is this context's offered [minVer, maxVer], clamped to what
// the build actually decodes. Zero config fields mean the legacy v1 plane.
func (c *Context) protoRange() (lo, hi uint8) {
	lo, hi = hdrVersion, hdrVersion
	if c.cfg.ProtoVerMax > 0 {
		hi = uint8(c.cfg.ProtoVerMax)
		if hi > hdrVersionMax {
			hi = hdrVersionMax
		}
	}
	if c.cfg.ProtoVerMin > 0 {
		lo = uint8(c.cfg.ProtoVerMin)
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// protoCaps is the capability set this context advertises.
func (c *Context) protoCaps() uint32 {
	if c.cfg.ProtoCaps != 0 {
		return c.cfg.ProtoCaps
	}
	if lo, hi := c.protoRange(); hi > hdrVersion && lo <= hdrVersion+1 {
		// A v2-capable node offers the drain hint on top of the baseline.
		return baselineCaps | capDrainHint
	}
	return baselineCaps
}

// helloEnabled reports whether establishment should carry a negotiation
// hello at all. The legacy default (ProtoVerMax unset) emits none, keeping
// every CM exchange byte-identical to the pre-negotiation build — private
// data length feeds packet sizes and therefore the golden digests.
func (c *Context) helloEnabled() bool {
	_, hi := c.protoRange()
	return hi > hdrVersion
}

// localHello is the offer this context dials and listens with.
func (c *Context) localHello() chanHello {
	lo, hi := c.protoRange()
	return chanHello{minVer: lo, maxVer: hi, caps: c.protoCaps()}
}

// chanHelloData is the dial-time private data: nil on the legacy plane.
func (c *Context) chanHelloData() []byte {
	if !c.helloEnabled() {
		return nil
	}
	return encodeChanHello(c.localHello())
}

// settle negotiates against an inbound offer (or its absence). present ==
// false marks a legacy peer: v1 + baselineCaps, always ok.
func (c *Context) settle(peer chanHello, present bool) (ver uint8, caps uint32, ok bool) {
	if !present {
		peer = chanHello{minVer: hdrVersion, maxVer: hdrVersion, caps: baselineCaps}
	}
	return negotiate(c.localHello(), peer)
}

// noteVerMismatch counts a negotiation failure (or an inbound frame with a
// version outside our range) and records it in the flight recorder — the
// operator-visible difference between "peer runs a foreign release" and
// corruption.
func (c *Context) noteVerMismatch(peer fabric.NodeID, qpn uint32, peerLo, peerHi uint8) {
	c.Stats.VerMismatches++
	lo, hi := c.protoRange()
	now := c.eng.Now()
	c.tel.Flight.Record(now, telemetry.CatVerMismatch, int32(c.Node()), qpn,
		int64(peer), int64(peerLo)|int64(peerHi)<<8|int64(lo)<<16|int64(hi)<<24)
	c.tel.Trace.Instant("ver.mismatch", c.track, now, int64(peerHi))
	c.logf("version negotiation failed: peer=%d offers [%d,%d], local [%d,%d]",
		peer, peerLo, peerHi, lo, hi)
}

// NegotiatedVersion reports the header version this channel settled on
// (hdrVersion when the peer is a legacy build or negotiation never ran).
func (ch *Channel) NegotiatedVersion() uint8 {
	if ch.negVer == 0 {
		return hdrVersion
	}
	return ch.negVer
}

// PeerCaps reports the effective capability set for this channel.
func (ch *Channel) PeerCaps() uint32 {
	if ch.negVer == 0 && ch.peerCaps == 0 {
		return baselineCaps
	}
	return ch.peerCaps
}

// peerCap gates an optional wire extension on the settled capability set.
func (ch *Channel) peerCap(bit uint32) bool {
	return ch.PeerCaps()&bit != 0
}

// setNegotiated installs a settled verdict on the channel.
func (ch *Channel) setNegotiated(ver uint8, caps uint32) {
	ch.negVer = ver
	ch.peerCaps = caps
}

// adoptPeerData consumes the responder's REP private data on the dialing
// side: a hello-shaped reply carries the settled verdict, anything else
// marks a legacy responder.
func (ch *Channel) adoptPeerData(pdata []byte) {
	if verdict, ok := parseChanHello(pdata); ok {
		ch.setNegotiated(verdict.maxVer, verdict.caps)
	}
}
