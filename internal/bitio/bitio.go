// Package bitio provides bit-granular encoding for distributed proof labels.
//
// Proof size in the DIP model is measured in bits, not bytes; the label
// codecs in this package let protocols marshal structured labels into
// bit strings whose exact length is the quantity the paper bounds.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrShortRead is recorded when a reader runs out of bits.
var ErrShortRead = errors.New("bitio: read past end of bit string")

// Writer accumulates bits most-significant-first. The zero value is
// ready to use.
//
// Bits are packed a 64-bit word at a time: the pending tail lives
// MSB-aligned in word and is flushed to buf as eight big-endian bytes
// whenever it fills, so every write is a couple of shifts and an OR no
// matter its width.
type Writer struct {
	buf  []byte // flushed words, big-endian
	word uint64 // pending bits, MSB-aligned; low 64-wn bits are zero
	wn   int    // pending bit count, always < 64 between calls
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return 8*len(w.buf) + w.wn }

// put appends the n high-order bits of x, whose low 64-n bits must be
// zero (n = 0 appends nothing, whatever x is).
func (w *Writer) put(x uint64, n int) {
	if n == 0 {
		return
	}
	free := 64 - w.wn
	w.word |= x >> uint(w.wn)
	if n < free {
		w.wn += n
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.word)
	// A shift by 64 yields 0 in Go, which is exactly the empty remainder
	// when n == free == 64.
	w.word = x << uint(free)
	w.wn = n - free
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	var x uint64
	if b {
		x = 1 << 63
	}
	w.put(x, 1)
}

// WriteUint appends the width low-order bits of v, most significant first.
// It panics if v does not fit in width bits: labels must be tight, and a
// value escaping its declared width is a protocol bug.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("bitio: value %d overflows %d bits", v, width))
	}
	w.put(v<<uint(64-width), width)
}

// WriteBool appends a boolean as one bit.
func (w *Writer) WriteBool(b bool) { w.WriteBit(b) }

// WriteString appends every bit of s. Inline strings (at most 64 bits)
// cost one word write; spilled ones one per 64 bits.
func (w *Writer) WriteString(s String) {
	if s.data == nil {
		w.put(s.word, s.nbit)
		return
	}
	for off := 0; off < s.nbit; off += 64 {
		n := min(64, s.nbit-off)
		w.put(s.window(off)&highMask(n), n)
	}
}

// String captures the written bits as an immutable bit string.
func (w *Writer) String() String {
	nbit := w.Len()
	switch {
	case len(w.buf) == 0:
		return String{word: w.word, nbit: nbit}
	case nbit == inlineBits:
		return String{word: binary.BigEndian.Uint64(w.buf), nbit: nbit}
	}
	cp := make([]byte, len(w.buf), (nbit+7)/8)
	copy(cp, w.buf)
	for i := 0; i < w.wn; i += 8 {
		cp = append(cp, byte(w.word>>(56-uint(i))))
	}
	return String{data: cp, nbit: nbit}
}

// highMask returns a word with its n high-order bits set, 0 <= n <= 64.
func highMask(n int) uint64 {
	if n == 0 {
		return 0
	}
	return ^uint64(0) << uint(64-n)
}

// inlineBits is the largest bit length stored inline in a String.
const inlineBits = 64

// String is an immutable sequence of bits. The zero value is the empty
// string, which is a valid (0-bit) label.
//
// Strings of at most 64 bits — which covers almost every coin and label
// a DIP verifier round produces — are stored inline: the bits live
// MSB-aligned in word with data nil, so constructing, copying, and
// comparing them never touches the heap. Longer strings spill to a byte
// slice. The representation is canonical (nbit <= 64 always means
// inline, unused low-order word bits are zero), which keeps Equal a
// single word compare on the short form.
type String struct {
	data []byte // spill storage for nbit > inlineBits; nil otherwise
	word uint64 // inline bits, MSB-aligned, for nbit <= inlineBits
	nbit int
}

// FromUint packs v into a width-bit string. For widths up to 64 — all
// of them — the result is inline and the call performs no allocation,
// which is what keeps per-node coin sampling off the heap in the
// engine hot paths.
func FromUint(v uint64, width int) String {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("bitio: value %d overflows %d bits", v, width))
	}
	return String{word: v << (64 - uint(width)), nbit: width}
}

// Len returns the bit length of the string.
func (s String) Len() int { return s.nbit }

// Bit returns bit i (0-indexed from the most significant end).
func (s String) Bit(i int) bool {
	if i < 0 || i >= s.nbit {
		panic(fmt.Sprintf("bitio: bit index %d out of range [0,%d)", i, s.nbit))
	}
	if s.data == nil {
		return s.word>>(63-uint(i))&1 == 1
	}
	return s.data[i/8]>>(7-uint(i%8))&1 == 1
}

// Equal reports whether two bit strings are identical in length and content.
func (s String) Equal(t String) bool {
	if s.nbit != t.nbit {
		return false
	}
	if s.nbit <= inlineBits {
		return s.word == t.word
	}
	for i := range s.data {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	return true
}

// Reader returns a cursor over the string's bits.
func (s String) Reader() *Reader { return &Reader{s: s} }

func (s String) String() string {
	out := make([]byte, s.nbit)
	for i := 0; i < s.nbit; i++ {
		if s.Bit(i) {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// window returns the 64 bits of s starting at bit pos, MSB-aligned;
// positions past the end read as zero. 0 <= pos <= s.nbit.
func (s String) window(pos int) uint64 {
	if s.data == nil {
		return s.word << uint(pos) // pos == 64 shifts everything out
	}
	i, sh := pos>>3, uint(pos&7)
	var x uint64
	if i+8 <= len(s.data) {
		x = binary.BigEndian.Uint64(s.data[i:])
	} else {
		for j, b := range s.data[i:] {
			x |= uint64(b) << (56 - 8*uint(j))
		}
	}
	if sh != 0 && i+8 < len(s.data) {
		x = x<<sh | uint64(s.data[i+8])>>(8-sh)
	} else {
		x <<= sh
	}
	return x
}

// Reader consumes a String most-significant-bit first. Reads are
// sticky: the first read longer than what remains, or at an invalid
// width, records ErrShortRead and exhausts the reader, as a bit-by-bit
// reader that ran off the end would, and every later read returns a
// zero value. A decoder reads all of its fields, nested sub-labels
// included, and checks Err once.
type Reader struct {
	s   String
	pos int
	err error
}

// Err reports ErrShortRead if any read so far ran short, else nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.nbit - r.pos }

// take reserves the next n bits and returns their start, or fails
// (recording ErrShortRead and exhausting the reader) when n is negative
// or fewer than n bits remain.
func (r *Reader) take(n int) (int, bool) {
	if n < 0 || n > r.s.nbit-r.pos {
		r.pos = r.s.nbit
		r.err = ErrShortRead
		return 0, false
	}
	pos := r.pos
	r.pos += n
	return pos, true
}

// ReadBool consumes one bit.
func (r *Reader) ReadBool() bool {
	pos, ok := r.take(1)
	return ok && r.s.window(pos)>>63 == 1
}

// ReadUint consumes width bits, 0 <= width <= 64, as an unsigned integer.
func (r *Reader) ReadUint(width int) uint64 {
	if width > 64 {
		width = -1 // fails in take
	}
	pos, ok := r.take(width)
	if !ok || width == 0 {
		return 0
	}
	return r.s.window(pos) >> uint(64-width)
}

// ReadString consumes the next n bits as a String in canonical form. It
// does not allocate for n <= 64, where the result is inline.
func (r *Reader) ReadString(n int) String {
	pos, ok := r.take(n)
	if !ok {
		return String{}
	}
	if n <= inlineBits {
		return String{word: r.s.window(pos) & highMask(n), nbit: n}
	}
	data := make([]byte, (n+7)/8)
	for off := 0; off < n; off += 64 {
		m := min(64, n-off)
		x := r.s.window(pos+off) & highMask(m)
		for i := 0; i < m; i += 8 {
			data[(off+i)/8] = byte(x >> (56 - uint(i)))
		}
	}
	return String{data: data, nbit: n}
}

// Decode reads one value from the front of s with read; bits past the
// value are ignored. It returns the zero value and ErrShortRead if s
// runs short. Decode inlines, so with a method expression for read the
// reader and the value stay on the caller's stack.
func Decode[T, P any](s String, p P, read func(*T, *Reader, P)) (T, error) {
	r := s.Reader()
	var v T
	read(&v, r, p)
	if r.err != nil {
		var zero T
		return zero, r.err
	}
	return v, nil
}

// BitsFor returns the number of bits needed to represent values in [0, n),
// i.e. ceil(log2 n), with BitsFor(0) = BitsFor(1) = 0.
func BitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
