package pathouter

import (
	"testing"

	"repro/internal/bitio/bitiotest"
	"repro/internal/forestcode"
	"repro/internal/lrsort"
	"repro/internal/spantree"
)

// FuzzDecoders checks every path-outerplanarity label decoder, each of
// which reads its forest-code, spanning-tree and LR-sorting sub-labels
// in place. Arbitrary bits decode to an error or a value that re-encodes
// to a prefix of them; a label carrying a Name only re-encodes to bits
// that decode to the same value, since a virtual name's payload is
// discarded. Labels built from fuzz values round-trip.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{0x00}, uint16(64), uint64(0), uint64(0))
	f.Add([]byte{0xff, 0x13, 0x77}, uint16(1000), uint64(0x2b), uint64(1<<40))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}, uint16(65535), ^uint64(0), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, a, b uint64) {
		p, err := NewParams(max(int(n), 2))
		if err != nil {
			t.Skip()
		}
		s := bitiotest.FromBytes(data)
		bitiotest.Prefix(t, p, s, (*Round1Node).read, Round1Node.write)
		bitiotest.Prefix(t, p, s, (*Round1Edge).read, Round1Edge.write)
		bitiotest.Prefix(t, p, s, (*CoinsV1).read, CoinsV1.write)
		bitiotest.Stable(t, p, s, (*Round2Node).read, Round2Node.write)
		bitiotest.Stable(t, p, s, (*Round2Edge).read, Round2Edge.write)

		mask := func(v uint64, bits int) uint64 { return v & (1<<uint(bits) - 1) }
		lr, f0, l := p.LR, p.LR.F0Bits(), p.NameBits()
		name := func(v uint64) Name {
			if v&1 == 1 {
				return Name{Virtual: true}
			}
			return Name{A: mask(v>>1, l), B: mask(v>>9, l)}
		}
		bitiotest.RoundTrip(t, p, Round1Node{
			FC: forestcode.Label{C1: uint8(a & 7), C2: uint8(a >> 3 & 7), Parity: uint8(a >> 6 & 1)},
			LR: lrsort.Round1Node{J: int(mask(b, lr.JBits)), X1Bit: a>>7&1 == 1, VB: lrsort.VBFlag(b >> 9 & 3), M1: int(mask(a>>11, lr.MBits))},
		}, (*Round1Node).read, Round1Node.write)
		bitiotest.RoundTrip(t, p, Round1Edge{
			TailIsCanonU: a&1 == 1, LR: lrsort.Round1Edge{Inner: a&2 == 2, Index: int(mask(b, lr.JBits))},
			LongestTailRight: a&4 == 4, LongestHeadLeft: a&8 == 8,
		}, (*Round1Edge).read, Round1Edge.write)
		bitiotest.RoundTrip(t, p, CoinsV1{
			ST: spantree.Coin{A: mask(a, p.ST.Reps), ID: mask(b, p.ST.IDBits)},
			LR: lrsort.CoinsV1{R: mask(b, f0), RP: mask(a, f0), RB: mask(a^b, f0)}, Name: mask(a>>3, l),
		}, (*CoinsV1).read, CoinsV1.write)
		bitiotest.RoundTrip(t, p, Round2Node{
			ST:            spantree.Sum{S: mask(b, p.ST.Reps), ID: mask(a, p.ST.IDBits)},
			LR:            lrsort.Round2Node{REcho: mask(a, f0), ChainX2: mask(b, f0), PrefPos: mask(a^b, f0)},
			HasRightEdges: a&2 == 2, HasLeftEdges: b&2 == 2, Above: name(a >> 5),
		}, (*Round2Node).read, Round2Node.write)
		bitiotest.RoundTrip(t, p, Round2Edge{
			LR: lrsort.Round2Edge{JVal: mask(b, f0)}, Name: name(a), Succ: name(b),
		}, (*Round2Edge).read, Round2Edge.write)
	})
}
