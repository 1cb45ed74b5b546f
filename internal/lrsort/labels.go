package lrsort

import "repro/internal/bitio"

// VBFlag locates a node relative to the marked least-significant-zero bit
// of its block's position (the consecutive-numbers proof).
type VBFlag uint8

const (
	// VBNone marks nodes that hold no position bit (in-block index >= B).
	VBNone VBFlag = iota
	// VBLeft marks bit holders left of (more significant than) the vb bit.
	VBLeft
	// VBAt marks the vb bit itself: x1 has 0, x2 has 1.
	VBAt
	// VBRight marks bit holders right of vb: x1 has 1, x2 has 0.
	VBRight
)

// Round1Node is the structural commitment the prover sends every node in
// round 1: the in-block index, the node's bits of pos(b) and pos(b)+1,
// the vb flag, and the two multiplicity counters used by the verification
// scheme.
type Round1Node struct {
	J      int // in-block index, 0-based
	X1Bit  bool
	X2Bit  bool
	VB     VBFlag
	M0, M1 int
}

// Write appends the round-1 node label.
func (l Round1Node) Write(w *bitio.Writer, p Params) {
	w.WriteUint(uint64(l.J), p.JBits)
	w.WriteBool(l.X1Bit)
	w.WriteBool(l.X2Bit)
	w.WriteUint(uint64(l.VB), 2)
	w.WriteUint(uint64(l.M0), p.MBits)
	w.WriteUint(uint64(l.M1), p.MBits)
}

// Read reads a round-1 node label.
func (l *Round1Node) Read(r *bitio.Reader, p Params) {
	l.J = int(r.ReadUint(p.JBits))
	l.X1Bit = r.ReadBool()
	l.X2Bit = r.ReadBool()
	l.VB = VBFlag(r.ReadUint(2))
	l.M0 = int(r.ReadUint(p.MBits))
	l.M1 = int(r.ReadUint(p.MBits))
}

// Encode returns the round-1 node label's bits.
func (l Round1Node) Encode(p Params) bitio.String {
	var w bitio.Writer
	l.Write(&w, p)
	return w.String()
}

// DecodeRound1Node parses a round-1 node label.
func DecodeRound1Node(s bitio.String, p Params) (Round1Node, error) {
	return bitio.Decode(s, p, (*Round1Node).Read)
}

// Round1Edge classifies a non-path edge and, for outer-block edges,
// commits to the claimed distinguishing index.
type Round1Edge struct {
	Inner bool
	Index int // distinguishing index in [1..B]; 0 when Inner
}

// Write appends the round-1 edge label.
func (l Round1Edge) Write(w *bitio.Writer, p Params) {
	w.WriteBool(l.Inner)
	w.WriteUint(uint64(l.Index), p.JBits)
}

// Read reads a round-1 edge label.
func (l *Round1Edge) Read(r *bitio.Reader, p Params) {
	l.Inner = r.ReadBool()
	l.Index = int(r.ReadUint(p.JBits))
}

// Encode returns the round-1 edge label's bits.
func (l Round1Edge) Encode(p Params) bitio.String {
	var w bitio.Writer
	l.Write(&w, p)
	return w.String()
}

// DecodeRound1Edge parses a round-1 edge label.
func DecodeRound1Edge(s bitio.String, p Params) (Round1Edge, error) {
	return bitio.Decode(s, p, (*Round1Edge).Read)
}

// CoinsV1 is a node's public randomness after round 1: the path head's
// global points r and r' and the block head's nonce r_b. Every node
// samples all three; only the designated heads' draws are consumed.
type CoinsV1 struct {
	R, RP, RB uint64
}

// Write appends the coins.
func (c CoinsV1) Write(w *bitio.Writer, p Params) {
	writeUints(w, p.F0Bits(), c.R, c.RP, c.RB)
}

// Read reads the coins.
func (c *CoinsV1) Read(r *bitio.Reader, p Params) {
	readUints(r, p.F0Bits(), &c.R, &c.RP, &c.RB)
}

// Encode returns the round-1 coins's bits.
func (c CoinsV1) Encode(p Params) bitio.String {
	var w bitio.Writer
	c.Write(&w, p)
	return w.String()
}

// DecodeCoinsV1 parses a round-1 coins.
func DecodeCoinsV1(s bitio.String, p Params) (CoinsV1, error) {
	return bitio.Decode(s, p, (*CoinsV1).Read)
}

// Round2Node carries the echoed randomness and the position-polynomial
// chain values.
type Round2Node struct {
	REcho   uint64 // echo of the global point r
	RPEcho  uint64 // echo of the global point r'
	RBEcho  uint64 // echo of the block nonce r_b
	ChainX1 uint64 // prefix product of (t - r) over x1-bits set, t <= own index
	ChainX2 uint64 // same for x2
	BcastX1 uint64 // block-wide broadcast of the full x1 product at r
	PrefPos uint64 // prefix product of (t - r') over pos-bits set (phi^b_j)
}

// Write appends the round-2 node label.
func (l Round2Node) Write(w *bitio.Writer, p Params) {
	writeUints(w, p.F0Bits(), l.REcho, l.RPEcho, l.RBEcho, l.ChainX1, l.ChainX2, l.BcastX1, l.PrefPos)
}

// Read reads a round-2 node label.
func (l *Round2Node) Read(r *bitio.Reader, p Params) {
	readUints(r, p.F0Bits(), &l.REcho, &l.RPEcho, &l.RBEcho, &l.ChainX1, &l.ChainX2, &l.BcastX1, &l.PrefPos)
}

// Encode returns the round-2 node label's bits.
func (l Round2Node) Encode(p Params) bitio.String {
	var w bitio.Writer
	l.Write(&w, p)
	return w.String()
}

// DecodeRound2Node parses a round-2 node label.
func DecodeRound2Node(s bitio.String, p Params) (Round2Node, error) {
	return bitio.Decode(s, p, (*Round2Node).Read)
}

// Round2Edge carries the committed prefix-polynomial value of an
// outer-block edge (the j of the pair rho(e) = (i, j)).
type Round2Edge struct {
	JVal uint64
}

// Write appends the round-2 edge label.
func (l Round2Edge) Write(w *bitio.Writer, p Params) { w.WriteUint(l.JVal, p.F0Bits()) }

// Read reads a round-2 edge label.
func (l *Round2Edge) Read(r *bitio.Reader, p Params) { l.JVal = r.ReadUint(p.F0Bits()) }

// Encode returns the round-2 edge label's bits.
func (l Round2Edge) Encode(p Params) bitio.String {
	var w bitio.Writer
	l.Write(&w, p)
	return w.String()
}

// DecodeRound2Edge parses a round-2 edge label.
func DecodeRound2Edge(s bitio.String, p Params) (Round2Edge, error) {
	return bitio.Decode(s, p, (*Round2Edge).Read)
}

// CoinsV2 is a node's round-2 randomness: the two in-block multiset
// evaluation points, consumed only at block heads.
type CoinsV2 struct {
	Z0, Z1 uint64
}

// Write appends the coins.
func (c CoinsV2) Write(w *bitio.Writer, p Params) { writeUints(w, p.F1Bits(), c.Z0, c.Z1) }

// Read reads the coins.
func (c *CoinsV2) Read(r *bitio.Reader, p Params) { readUints(r, p.F1Bits(), &c.Z0, &c.Z1) }

// Encode returns the round-2 coins's bits.
func (c CoinsV2) Encode(p Params) bitio.String {
	var w bitio.Writer
	c.Write(&w, p)
	return w.String()
}

// DecodeCoinsV2 parses a round-2 coins.
func DecodeCoinsV2(s bitio.String, p Params) (CoinsV2, error) {
	return bitio.Decode(s, p, (*CoinsV2).Read)
}

// Round3Node carries the echoes of z0/z1 and the four aggregation chains
// of the verification scheme: the C-side and D-side products for the
// bit-0 and bit-1 checks.
type Round3Node struct {
	Z0Echo, Z1Echo uint64
	AggC0, AggD0   uint64
	AggC1, AggD1   uint64
}

// Write appends the round-3 node label.
func (l Round3Node) Write(w *bitio.Writer, p Params) {
	writeUints(w, p.F1Bits(), l.Z0Echo, l.Z1Echo, l.AggC0, l.AggD0, l.AggC1, l.AggD1)
}

// Read reads a round-3 node label.
func (l *Round3Node) Read(r *bitio.Reader, p Params) {
	readUints(r, p.F1Bits(), &l.Z0Echo, &l.Z1Echo, &l.AggC0, &l.AggD0, &l.AggC1, &l.AggD1)
}

// Encode returns the round-3 node label's bits.
func (l Round3Node) Encode(p Params) bitio.String {
	var w bitio.Writer
	l.Write(&w, p)
	return w.String()
}

// DecodeRound3Node parses a round-3 node label.
func DecodeRound3Node(s bitio.String, p Params) (Round3Node, error) {
	return bitio.Decode(s, p, (*Round3Node).Read)
}

func writeUints(w *bitio.Writer, width int, vs ...uint64) {
	for _, v := range vs {
		w.WriteUint(v, width)
	}
}

func readUints(r *bitio.Reader, width int, fs ...*uint64) {
	for _, f := range fs {
		*f = r.ReadUint(width)
	}
}
