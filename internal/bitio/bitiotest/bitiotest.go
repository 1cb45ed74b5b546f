// Package bitiotest checks label codecs, written as a read/write method
// pair over bitio, against the properties every decoder's fuzz target
// asserts.
package bitiotest

import (
	"testing"

	"repro/internal/bitio"
)

// FromBytes packs data into a bit string, eight bits a byte.
func FromBytes(data []byte) bitio.String {
	var w bitio.Writer
	for _, b := range data {
		w.WriteUint(uint64(b), 8)
	}
	return w.String()
}

func encode[T, P any](v T, p P, write func(T, *bitio.Writer, P)) bitio.String {
	var w bitio.Writer
	write(v, &w, p)
	return w.String()
}

// Prefix checks a decoder on arbitrary bits s: read must fail, or yield
// a value that write re-encodes to a prefix of s.
func Prefix[T, P any](t testing.TB, p P, s bitio.String, read func(*T, *bitio.Reader, P), write func(T, *bitio.Writer, P)) {
	t.Helper()
	v, err := bitio.Decode(s, p, read)
	if err != nil {
		return
	}
	e := encode(v, p, write)
	if e.Len() > s.Len() {
		t.Fatalf("%T %+v re-encodes to %d bits, more than its %d-bit input", v, v, e.Len(), s.Len())
	}
	for i := 0; i < e.Len(); i++ {
		if e.Bit(i) != s.Bit(i) {
			t.Fatalf("%T %+v re-encodes to %s, not a prefix of %s", v, v, e, s)
		}
	}
}

// Stable is Prefix for a format with bits the decoder discards: a value
// read from s must re-encode to bits that read back as the same value.
func Stable[T comparable, P any](t testing.TB, p P, s bitio.String, read func(*T, *bitio.Reader, P), write func(T, *bitio.Writer, P)) {
	t.Helper()
	if v, err := bitio.Decode(s, p, read); err == nil {
		RoundTrip(t, p, v, read, write)
	}
}

// RoundTrip checks that v reads back unchanged from the bits write gives.
func RoundTrip[T comparable, P any](t testing.TB, p P, v T, read func(*T, *bitio.Reader, P), write func(T, *bitio.Writer, P)) {
	t.Helper()
	if got, err := bitio.Decode(encode(v, p, write), p, read); err != nil || got != v {
		t.Fatalf("%T round trip: %+v -> %+v, %v", v, v, got, err)
	}
}
