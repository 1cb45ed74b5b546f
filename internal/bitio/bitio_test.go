package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	tests := []struct {
		v     uint64
		width int
	}{
		{0, 0}, {0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9},
		{1<<32 - 1, 32}, {1<<63 - 1, 63},
	}
	for _, tt := range tests {
		var w Writer
		w.WriteUint(tt.v, tt.width)
		s := w.String()
		if s.Len() != tt.width {
			t.Fatalf("width %d: got len %d", tt.width, s.Len())
		}
		r := s.Reader()
		got := r.ReadUint(tt.width)
		if err := r.Err(); err != nil {
			t.Fatalf("read: %v", err)
		}
		if got != tt.v {
			t.Fatalf("round trip %d/%d: got %d", tt.v, tt.width, got)
		}
	}
}

func TestMixedFields(t *testing.T) {
	var w Writer
	w.WriteBool(true)
	w.WriteUint(42, 7)
	w.WriteBool(false)
	w.WriteUint(9, 5)
	s := w.String()
	if s.Len() != 14 {
		t.Fatalf("len = %d, want 14", s.Len())
	}
	r := s.Reader()
	if !r.ReadBool() {
		t.Fatal("first bool")
	}
	if v := r.ReadUint(7); v != 42 {
		t.Fatalf("got %d want 42", v)
	}
	if r.ReadBool() {
		t.Fatal("second bool")
	}
	if v := r.ReadUint(5); v != 9 {
		t.Fatalf("got %d want 9", v)
	}
	if r.Remaining() != 0 || r.Err() != nil {
		t.Fatalf("remaining %d, err %v", r.Remaining(), r.Err())
	}
}

// TestShortRead pins the sticky reader: the first short read records
// ErrShortRead and exhausts the reader, and every later read, even one
// that would have fit before, returns a zero value.
func TestShortRead(t *testing.T) {
	s := FromUint(3, 2)
	r := s.Reader()
	if v := r.ReadUint(3); v != 0 || r.Err() != ErrShortRead || r.Remaining() != 0 {
		t.Fatalf("short read: got %d, err %v, remaining %d", v, r.Err(), r.Remaining())
	}
	if r.ReadBool() || r.ReadUint(1) != 0 || r.ReadString(1).Len() != 0 || r.Err() != ErrShortRead {
		t.Fatal("reads after a short read must return zero values and keep the error")
	}
	for _, width := range []int{-1, 65} {
		r := s.Reader()
		if v := r.ReadUint(width); v != 0 || r.Err() != ErrShortRead || r.Remaining() != 0 {
			t.Fatalf("invalid width %d: got %d, err %v, remaining %d", width, v, r.Err(), r.Remaining())
		}
	}
}

type pair struct{ A, B uint64 }

func (v *pair) read(r *Reader, width int) {
	v.A = r.ReadUint(width)
	v.B = r.ReadUint(width)
}

// TestDecode checks the shared entry point: trailing bits are ignored,
// a short input yields the zero value and ErrShortRead, and an inline
// label decodes without allocating.
func TestDecode(t *testing.T) {
	if got, err := Decode(FromUint(0b1011101, 7), 3, (*pair).read); err != nil || got != (pair{5, 6}) {
		t.Fatalf("decode with a trailing bit: %+v, %v", got, err)
	}
	if got, err := Decode(FromUint(45, 6), 4, (*pair).read); err != ErrShortRead || got != (pair{}) {
		t.Fatalf("short decode: %+v, %v", got, err)
	}
	var sink pair
	s := FromUint(0xbeef, 16)
	allocs := testing.AllocsPerRun(100, func() { sink, _ = Decode(s, 8, (*pair).read) })
	if allocs != 0 || sink != (pair{0xbe, 0xef}) {
		t.Errorf("Decode allocated %.1f times per call (got %+v), want 0", allocs, sink)
	}
}

func TestOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	var w Writer
	w.WriteUint(8, 3)
}

func TestEqual(t *testing.T) {
	a := FromUint(5, 3)
	b := FromUint(5, 3)
	c := FromUint(5, 4)
	if !a.Equal(b) {
		t.Fatal("equal strings differ")
	}
	if a.Equal(c) {
		t.Fatal("different lengths compare equal")
	}
	var zero String
	if !zero.Equal(String{}) {
		t.Fatal("zero values differ")
	}
}

func TestBitsFor(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, tt := range tests {
		if got := BitsFor(tt.n); got != tt.want {
			t.Errorf("BitsFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint16) bool {
		var w Writer
		for _, v := range vals {
			w.WriteUint(uint64(v), 16)
		}
		r := w.String().Reader()
		for _, v := range vals {
			if r.ReadUint(16) != uint64(v) || r.Err() != nil {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestStringBitAccess(t *testing.T) {
	s := FromUint(0b1011, 4)
	want := []bool{true, false, true, true}
	for i, b := range want {
		if s.Bit(i) != b {
			t.Fatalf("bit %d: got %v want %v", i, s.Bit(i), b)
		}
	}
	if s.String() != "1011" {
		t.Fatalf("String() = %q", s.String())
	}
}

// TestInlineCanonicalForm pins the inline small-string representation:
// every construction path must yield the inline form for <= 64 bits
// (data nil, so FromUint and short Writer.String calls are heap-free)
// and the spilled form beyond, with Bit/Equal/Reader agreeing across
// the boundary.
func TestInlineCanonicalForm(t *testing.T) {
	for _, width := range []int{0, 1, 4, 8, 31, 32, 63, 64} {
		v := uint64(0xA5A5A5A5A5A5A5A5) & (1<<uint(width) - 1)
		if width == 64 {
			v = 0xA5A5A5A5A5A5A5A5
		}
		direct := FromUint(v, width)
		var w Writer
		w.WriteUint(v, width)
		written := w.String()
		if direct.data != nil || written.data != nil {
			t.Fatalf("width %d: expected inline form, got spilled", width)
		}
		if !direct.Equal(written) {
			t.Fatalf("width %d: FromUint and Writer.String disagree", width)
		}
		r := written.Reader()
		if got := r.ReadUint(width); r.Err() != nil || got != v {
			t.Fatalf("width %d: round-trip got %d (%v), want %d", width, got, r.Err(), v)
		}
	}
	var w Writer
	w.WriteUint(0xDEADBEEF, 32)
	w.WriteUint(0xDEADBEEF, 32)
	w.WriteBit(true)
	long := w.String() // 65 bits: must spill
	if long.data == nil {
		t.Fatal("65-bit string should spill to data")
	}
	if long.Len() != 65 || !long.Bit(64) {
		t.Fatalf("spilled string: len=%d bit64=%v", long.Len(), long.Bit(64))
	}
}

// TestFromUintNoAlloc gates the engine-hot-path property the inline
// form exists for: packing a small value into a String is free.
func TestFromUintNoAlloc(t *testing.T) {
	var sink String
	allocs := testing.AllocsPerRun(100, func() {
		sink = FromUint(13, 8)
	})
	if allocs != 0 {
		t.Errorf("FromUint allocated %.1f times per call, want 0", allocs)
	}
	if sink.Len() != 8 {
		t.Fatal("bad sink")
	}
}
