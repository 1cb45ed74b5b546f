package pathouter

import (
	"repro/internal/bitio"
	"repro/internal/forestcode"
	"repro/internal/lrsort"
	"repro/internal/spantree"
)

// Each label is written and read by one write/read pair, which writes
// and reads its sub-labels (forest code, spanning-tree coins and sums,
// LR-sorting fields) in place through their own packages' codecs. The
// exported Encode/Decode functions wrap the pair for a whole bit string;
// decoding ignores trailing bits.

// Name identifies a non-path edge by the random strings of its endpoints
// (s_tail, s_head), or the virtual edge (Virtual), whose name is the
// designated bottom symbol.
type Name struct {
	Virtual bool
	A, B    uint64 // s_tail, s_head
}

// write gives a virtual name an all-zero payload.
func (nm Name) write(w *bitio.Writer, p Params) {
	if nm.Virtual {
		nm = Name{Virtual: true}
	}
	w.WriteBool(nm.Virtual)
	w.WriteUint(nm.A, p.NameBits())
	w.WriteUint(nm.B, p.NameBits())
}

// read discards a virtual name's payload.
func (nm *Name) read(r *bitio.Reader, p Params) {
	nm.Virtual = r.ReadBool()
	nm.A = r.ReadUint(p.NameBits())
	nm.B = r.ReadUint(p.NameBits())
	if nm.Virtual {
		*nm = Name{Virtual: true}
	}
}

// Round1Node is the first prover message at a node: the forest code of
// the committed Hamiltonian path plus the LR-sorting block structure.
type Round1Node struct {
	FC forestcode.Label
	LR lrsort.Round1Node
}

func (l Round1Node) write(w *bitio.Writer, p Params) {
	l.FC.Write(w)
	l.LR.Write(w, p.LR)
}

func (l *Round1Node) read(r *bitio.Reader, p Params) {
	l.FC.Read(r)
	l.LR.Read(r, p.LR)
}

// Encode writes the round-1 node label.
func (l Round1Node) Encode(p Params) bitio.String {
	var w bitio.Writer
	l.write(&w, p)
	return w.String()
}

// DecodeRound1Node parses a round-1 node label.
func DecodeRound1Node(s bitio.String, p Params) (Round1Node, error) {
	return bitio.Decode(s, p, (*Round1Node).read)
}

// Round1Edge is the first prover message on a non-path edge: the claimed
// orientation, the LR-sorting classification, and the longest-edge marks
// of the nesting stage.
type Round1Edge struct {
	// TailIsCanonU: the edge is directed from Canon(u,v).U to .V.
	TailIsCanonU bool
	LR           lrsort.Round1Edge
	// LongestTailRight marks this edge as the longest right edge of its
	// tail; LongestHeadLeft as the longest left edge of its head.
	LongestTailRight bool
	LongestHeadLeft  bool
}

func (l Round1Edge) write(w *bitio.Writer, p Params) {
	w.WriteBool(l.TailIsCanonU)
	l.LR.Write(w, p.LR)
	w.WriteBool(l.LongestTailRight)
	w.WriteBool(l.LongestHeadLeft)
}

func (l *Round1Edge) read(r *bitio.Reader, p Params) {
	l.TailIsCanonU = r.ReadBool()
	l.LR.Read(r, p.LR)
	l.LongestTailRight = r.ReadBool()
	l.LongestHeadLeft = r.ReadBool()
}

// Encode writes the round-1 edge label.
func (l Round1Edge) Encode(p Params) bitio.String {
	var w bitio.Writer
	l.write(&w, p)
	return w.String()
}

// DecodeRound1Edge parses a round-1 edge label.
func DecodeRound1Edge(s bitio.String, p Params) (Round1Edge, error) {
	return bitio.Decode(s, p, (*Round1Edge).read)
}

// CoinsV1 is a node's first public randomness: spanning-tree coins, the
// LR-sorting points, and the nesting name s_v.
type CoinsV1 struct {
	ST   spantree.Coin
	LR   lrsort.CoinsV1
	Name uint64
}

func (c CoinsV1) write(w *bitio.Writer, p Params) {
	c.ST.Write(w, p.ST)
	c.LR.Write(w, p.LR)
	w.WriteUint(c.Name, p.NameBits())
}

func (c *CoinsV1) read(r *bitio.Reader, p Params) {
	c.ST.Read(r, p.ST)
	c.LR.Read(r, p.LR)
	c.Name = r.ReadUint(p.NameBits())
}

// Encode writes the coins.
func (c CoinsV1) Encode(p Params) bitio.String {
	var w bitio.Writer
	c.write(&w, p)
	return w.String()
}

// DecodeCoinsV1 parses the round-1 coins.
func DecodeCoinsV1(s bitio.String, p Params) (CoinsV1, error) {
	return bitio.Decode(s, p, (*CoinsV1).read)
}

// Round2Node is the second prover message at a node: spanning-tree sums,
// LR-sorting chains, the side flags, and the above label of the nesting
// stage.
type Round2Node struct {
	ST spantree.Sum
	LR lrsort.Round2Node
	// HasRightEdges/HasLeftEdges announce whether the node is incident on
	// any right (outgoing) / left (incoming) non-path edges; each node
	// checks its own flags deterministically, and neighbors consume them
	// for the cross-gap conditions (4)/(5).
	HasRightEdges bool
	HasLeftEdges  bool
	Above         Name
}

func (l Round2Node) write(w *bitio.Writer, p Params) {
	l.ST.Write(w, p.ST)
	l.LR.Write(w, p.LR)
	w.WriteBool(l.HasRightEdges)
	w.WriteBool(l.HasLeftEdges)
	l.Above.write(w, p)
}

func (l *Round2Node) read(r *bitio.Reader, p Params) {
	l.ST.Read(r, p.ST)
	l.LR.Read(r, p.LR)
	l.HasRightEdges = r.ReadBool()
	l.HasLeftEdges = r.ReadBool()
	l.Above.read(r, p)
}

// Encode writes the round-2 node label.
func (l Round2Node) Encode(p Params) bitio.String {
	var w bitio.Writer
	l.write(&w, p)
	return w.String()
}

// DecodeRound2Node parses a round-2 node label.
func DecodeRound2Node(s bitio.String, p Params) (Round2Node, error) {
	return bitio.Decode(s, p, (*Round2Node).read)
}

// Round2Edge is the second prover message on a non-path edge: the
// LR-sorting commitment plus the edge's name and its successor's name.
type Round2Edge struct {
	LR   lrsort.Round2Edge
	Name Name
	Succ Name
}

func (l Round2Edge) write(w *bitio.Writer, p Params) {
	l.LR.Write(w, p.LR)
	l.Name.write(w, p)
	l.Succ.write(w, p)
}

func (l *Round2Edge) read(r *bitio.Reader, p Params) {
	l.LR.Read(r, p.LR)
	l.Name.read(r, p)
	l.Succ.read(r, p)
}

// Encode writes the round-2 edge label.
func (l Round2Edge) Encode(p Params) bitio.String {
	var w bitio.Writer
	l.write(&w, p)
	return w.String()
}

// DecodeRound2Edge parses a round-2 edge label.
func DecodeRound2Edge(s bitio.String, p Params) (Round2Edge, error) {
	return bitio.Decode(s, p, (*Round2Edge).read)
}
