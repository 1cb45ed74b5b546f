package bitio

import "testing"

// The word-level codec is checked against this bit-at-a-time reference:
// a bit string is a []bool, and a read past the end exhausts the
// reader, as a per-bit loop does, and leaves the error standing.

// refString packs bits into a String in canonical form without going
// through Writer: inline (word MSB-aligned) up to 64 bits, spilled
// beyond, unused low-order bits zero.
func refString(bits []bool) String {
	if len(bits) <= inlineBits {
		var word uint64
		for i, b := range bits {
			if b {
				word |= 1 << (63 - uint(i))
			}
		}
		return String{word: word, nbit: len(bits)}
	}
	data := make([]byte, (len(bits)+7)/8)
	for i, b := range bits {
		if b {
			data[i/8] |= 1 << (7 - uint(i%8))
		}
	}
	return String{data: data, nbit: len(bits)}
}

func refUintBits(v uint64, width int) []bool {
	out := make([]bool, width)
	for i := range out {
		out[i] = v>>(uint(width-1-i))&1 == 1
	}
	return out
}

type refReader struct {
	bits []bool
	pos  int
	err  error
}

// take mirrors a bit-by-bit loop: on a short read every remaining bit
// has been consumed when the error surfaces. It returns nil bits, which
// read as zero, on failure.
func (r *refReader) take(n int) []bool {
	if n > len(r.bits)-r.pos {
		r.pos = len(r.bits)
		r.err = ErrShortRead
		return nil
	}
	out := r.bits[r.pos : r.pos+n]
	r.pos += n
	return out
}

// refValue packs bits read by take; nil (a failed read) reads as zero.
func refValue(bits []bool) uint64 {
	var v uint64
	for _, b := range bits {
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v
}

// fuzzInput doles out the fuzzer's bytes; exhausted input reads as zero.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) word() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(in.next())
	}
	return v
}

func (in *fuzzInput) bits(n int) []bool {
	out := make([]bool, n)
	var cur byte
	for i := range out {
		if i%8 == 0 {
			cur = in.next()
		}
		out[i] = cur>>(7-uint(i%8))&1 == 1
	}
	return out
}

func lowBits(v uint64, width int) uint64 {
	if width == 64 {
		return v
	}
	return v & (1<<uint(width) - 1)
}

func checkCanonical(t *testing.T, what string, s String) {
	t.Helper()
	if inline := s.nbit <= inlineBits; inline != (s.data == nil) {
		t.Fatalf("%s: %d-bit string has data=%v, want inline form exactly when <= 64 bits", what, s.nbit, s.data != nil)
	}
	if s.data == nil && s.word&^highMask(s.nbit) != 0 {
		t.Fatalf("%s: inline word %#x has bits past length %d", what, s.word, s.nbit)
	}
	if s.data != nil {
		if len(s.data) != (s.nbit+7)/8 {
			t.Fatalf("%s: %d data bytes for %d bits", what, len(s.data), s.nbit)
		}
		if pad := s.nbit % 8; pad != 0 && s.data[len(s.data)-1]&(0xff>>uint(pad)) != 0 {
			t.Fatalf("%s: padding bits of the last byte are set", what)
		}
	}
}

// FuzzWordOps runs a program of mixed-width writes, then a program of
// mixed-width reads over the result, through the codec and the
// reference, and demands identical bits, values, errors and cursor
// positions throughout. An invalid width fails like a read past the end.
func FuzzWordOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 1, 2, 7, 0xaa, 3, 130, 0x55})
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 61, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 4, 0, 9, 4, 65, 6, 70})
	f.Add([]byte{3, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 4, 5, 13, 6, 129, 5, 70, 4, 64})
	f.Fuzz(func(t *testing.T, prog []byte) {
		in := fuzzInput(prog)

		// Write phase: up to 16 operations.
		var w Writer
		var ref []bool
		for op := 0; op < 16 && len(in) > 0; op++ {
			switch in.next() % 4 {
			case 0:
				width := int(in.next() % 65)
				v := lowBits(in.word(), width)
				w.WriteUint(v, width)
				ref = append(ref, refUintBits(v, width)...)
			case 1:
				b := in.next()&1 == 1
				w.WriteBit(b)
				ref = append(ref, b)
			case 2: // inline string, 0..64 bits
				bits := in.bits(int(in.next() % 65))
				w.WriteString(refString(bits))
				ref = append(ref, bits...)
			case 3: // spilled string, 65..320 bits
				bits := in.bits(65 + int(in.next()))
				w.WriteString(refString(bits))
				ref = append(ref, bits...)
			}
			if w.Len() != len(ref) {
				t.Fatalf("write op %d: Len %d, reference %d", op, w.Len(), len(ref))
			}
		}
		s := w.String()
		checkCanonical(t, "Writer.String", s)
		if !s.Equal(refString(ref)) {
			t.Fatalf("written %q, reference %q", s, refString(ref))
		}
		for i, b := range ref {
			if s.Bit(i) != b {
				t.Fatalf("Bit(%d) = %v, reference %v", i, s.Bit(i), b)
			}
		}

		// Read phase over the written string.
		r := s.Reader()
		rr := &refReader{bits: ref}
		for op := 0; op < 32 && len(in) > 0; op++ {
			kind := in.next() % 4
			n := int(in.next())
			switch kind {
			case 0:
				width := n % 66 // 65 is an invalid width
				got := r.ReadUint(width)
				var want uint64
				if width > 64 {
					rr.take(len(rr.bits) + 1)
				} else {
					want = refValue(rr.take(width))
				}
				if got != want {
					t.Fatalf("ReadUint(%d) = %d, reference %d", width, got, want)
				}
			case 1:
				got := r.ReadBool()
				if want := refValue(rr.take(1)) == 1; got != want {
					t.Fatalf("ReadBool = %v, reference %v", got, want)
				}
			case 2, 3:
				if kind == 2 {
					n %= 65
				}
				got := r.ReadString(n)
				bits := rr.take(n)
				checkCanonical(t, "ReadString", got)
				if !got.Equal(refString(bits)) {
					t.Fatalf("ReadString(%d) = %q, reference %q", n, got, refString(bits))
				}
			}
			if r.Err() != rr.err {
				t.Fatalf("read op %d: Err %v, reference %v", op, r.Err(), rr.err)
			}
			if r.Remaining() != len(rr.bits)-rr.pos {
				t.Fatalf("read op %d: Remaining %d, reference %d", op, r.Remaining(), len(rr.bits)-rr.pos)
			}
		}
	})
}

// TestReadsCrossByteBoundaries reads every (offset, width) window of a
// 200-bit string, so every sub-byte alignment and both representations
// are exercised, not just what the fuzzer happens to reach.
func TestReadsCrossByteBoundaries(t *testing.T) {
	in := fuzzInput([]byte("word-at-a-time label codec: every offset, every width, both forms"))
	for _, total := range []int{64, 200} {
		ref := in.bits(total)
		s := refString(ref)
		for off := 0; off <= total; off++ {
			for width := 0; width <= 64; width++ {
				r := s.Reader()
				if r.ReadString(off); r.Err() != nil {
					t.Fatal(r.Err())
				}
				got := r.ReadString(width)
				if off+width > total {
					if r.Err() != ErrShortRead || r.Remaining() != 0 || got.Len() != 0 {
						t.Fatalf("total %d off %d width %d: err %v remaining %d", total, off, width, r.Err(), r.Remaining())
					}
					continue
				}
				if !got.Equal(refString(ref[off : off+width])) {
					t.Fatalf("total %d off %d width %d: %q", total, off, width, got)
				}
				r = s.Reader()
				r.ReadString(off)
				if v := r.ReadUint(width); !FromUint(v, width).Equal(got) {
					t.Fatalf("total %d off %d width %d: ReadUint %d disagrees with ReadString", total, off, width, v)
				}
			}
		}
	}
}

// TestWordOpsNoAlloc pins the hot-path property the word-level codec
// exists for: short reads and inline writes never touch the heap.
func TestWordOpsNoAlloc(t *testing.T) {
	in := fuzzInput([]byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	long := refString(in.bits(200))
	short := FromUint(0x5a5a5, 20)
	r := long.Reader()
	var sink String
	var sum uint64
	cases := []struct {
		name string
		f    func()
	}{
		{"ReadString(64)", func() { r.pos = 3; sink = r.ReadString(64) }},
		{"ReadString(7)", func() { r.pos = 100; sink = r.ReadString(7) }},
		{"ReadUint", func() { r.pos = 61; sum += r.ReadUint(37) }},
		{"WriteString", func() {
			var w Writer
			w.WriteString(short)
			w.WriteString(short)
			w.WriteUint(3, 2)
			sink = w.String()
		}},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.f); allocs != 0 {
			t.Errorf("%s allocated %.1f times per call, want 0", c.name, allocs)
		}
	}
	_, _ = sink, sum
}
