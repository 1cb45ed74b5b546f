package lrsort

import (
	"testing"

	"repro/internal/bitio/bitiotest"
)

// FuzzDecoders checks every LR-sorting label decoder, which the
// path-outerplanarity verifier also runs in place inside its own labels.
// Arbitrary bits decode to an error or a value that re-encodes to a
// prefix of them, and labels built from fuzz values round-trip.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{}, uint16(2), uint64(0), uint64(0))
	f.Add([]byte{0x42}, uint16(100), uint64(5), uint64(1<<40))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(4096), ^uint64(0), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, a, b uint64) {
		p, err := NewParams(max(int(n), 2))
		if err != nil {
			t.Skip()
		}
		s := bitiotest.FromBytes(data)
		bitiotest.Prefix(t, p, s, (*Round1Node).Read, Round1Node.Write)
		bitiotest.Prefix(t, p, s, (*Round1Edge).Read, Round1Edge.Write)
		bitiotest.Prefix(t, p, s, (*CoinsV1).Read, CoinsV1.Write)
		bitiotest.Prefix(t, p, s, (*Round2Node).Read, Round2Node.Write)
		bitiotest.Prefix(t, p, s, (*Round2Edge).Read, Round2Edge.Write)
		bitiotest.Prefix(t, p, s, (*CoinsV2).Read, CoinsV2.Write)
		bitiotest.Prefix(t, p, s, (*Round3Node).Read, Round3Node.Write)

		mask := func(v uint64, bits int) uint64 { return v & (1<<uint(bits) - 1) }
		f0, f1 := p.F0Bits(), p.F1Bits()
		bitiotest.RoundTrip(t, p, Round1Node{
			J: int(mask(a, p.JBits)), X1Bit: b&1 == 1, X2Bit: b&2 == 2, VB: VBFlag(b >> 2 & 3),
			M0: int(mask(a>>8, p.MBits)), M1: int(mask(b>>8, p.MBits)),
		}, (*Round1Node).Read, Round1Node.Write)
		bitiotest.RoundTrip(t, p, Round1Edge{Inner: a&1 == 1, Index: int(mask(b, p.JBits))}, (*Round1Edge).Read, Round1Edge.Write)
		bitiotest.RoundTrip(t, p, CoinsV1{R: mask(a, f0), RP: mask(b, f0), RB: mask(a^b, f0)}, (*CoinsV1).Read, CoinsV1.Write)
		bitiotest.RoundTrip(t, p, Round2Node{
			REcho: mask(a, f0), RPEcho: mask(b, f0), RBEcho: mask(a^b, f0), ChainX1: mask(a>>3, f0),
			ChainX2: mask(b>>3, f0), BcastX1: mask(a>>5, f0), PrefPos: mask(b>>5, f0),
		}, (*Round2Node).Read, Round2Node.Write)
		bitiotest.RoundTrip(t, p, Round2Edge{JVal: mask(a, f0)}, (*Round2Edge).Read, Round2Edge.Write)
		bitiotest.RoundTrip(t, p, CoinsV2{Z0: mask(a, f1), Z1: mask(b, f1)}, (*CoinsV2).Read, CoinsV2.Write)
		bitiotest.RoundTrip(t, p, Round3Node{
			Z0Echo: mask(a, f1), Z1Echo: mask(b, f1), AggC0: mask(a^b, f1),
			AggD0: mask(a>>7, f1), AggC1: mask(b>>7, f1), AggD1: mask(a>>11, f1),
		}, (*Round3Node).Read, Round3Node.Write)
	})
}
