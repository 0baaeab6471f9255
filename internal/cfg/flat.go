package cfg

import (
	"fmt"

	"optiwise/internal/isa"
)

// FlatGraph is the wire form of a Graph: blocks and edges flattened
// into index-addressed tables that survive serialization. The in-memory
// Graph threads *Edge pointers through both endpoints' Succs/Preds
// lists; flattening writes each edge exactly once (from its source
// block's Succs) and Unflatten rebuilds the shared-pointer shape and
// the byStart index. The cluster layer ships FlatGraphs between nodes
// so a peer-fetched profile renders identically to a locally combined
// one, CFG-derived views included.
type FlatGraph struct {
	Module    string      `json:"module"`
	Blocks    []FlatBlock `json:"blocks,omitempty"`
	Edges     []FlatEdge  `json:"edges,omitempty"`
	CallEdges []CallEdge  `json:"call_edges,omitempty"`
}

// FlatBlock is one CFG block without its edge lists; its index in
// FlatGraph.Blocks is its Block.Index.
type FlatBlock struct {
	Start  uint64 `json:"start"`
	End    uint64 `json:"end"`
	Count  uint64 `json:"count,omitempty"`
	TermOp uint8  `json:"term_op,omitempty"`
}

// FlatEdge is one CFG edge by block index.
type FlatEdge struct {
	From  int      `json:"from"`
	To    int      `json:"to"`
	Count uint64   `json:"count,omitempty"`
	Kind  EdgeKind `json:"kind,omitempty"`
}

// Flatten converts g into its wire form. A nil graph flattens to nil.
func (g *Graph) Flatten() *FlatGraph {
	if g == nil {
		return nil
	}
	f := &FlatGraph{
		Module:    g.Module,
		Blocks:    make([]FlatBlock, len(g.Blocks)),
		CallEdges: g.CallEdges,
	}
	for i, b := range g.Blocks {
		f.Blocks[i] = FlatBlock{Start: b.Start, End: b.End, Count: b.Count, TermOp: uint8(b.TermOp)}
		for _, e := range b.Succs {
			f.Edges = append(f.Edges, FlatEdge{From: e.From, To: e.To, Count: e.Count, Kind: e.Kind})
		}
	}
	return f
}

// Unflatten rebuilds the in-memory Graph: blocks in table order, each
// edge materialized once and linked into both endpoints, byStart
// reindexed. Edge endpoints are validated so a corrupted wire payload
// fails loudly instead of building a graph that panics later.
func (f *FlatGraph) Unflatten() (*Graph, error) {
	if f == nil {
		return nil, nil
	}
	g := &Graph{
		Module:    f.Module,
		Blocks:    make([]*Block, len(f.Blocks)),
		CallEdges: f.CallEdges,
		byStart:   make(map[uint64]int, len(f.Blocks)),
	}
	for i, fb := range f.Blocks {
		if fb.End < fb.Start {
			return nil, fmt.Errorf("cfg: flat block %d has end 0x%x before start 0x%x", i, fb.End, fb.Start)
		}
		g.Blocks[i] = &Block{Index: i, Start: fb.Start, End: fb.End, Count: fb.Count, TermOp: isa.Op(fb.TermOp)}
		g.byStart[fb.Start] = i
	}
	for _, fe := range f.Edges {
		if fe.From < 0 || fe.From >= len(g.Blocks) || fe.To < 0 || fe.To >= len(g.Blocks) {
			return nil, fmt.Errorf("cfg: flat edge %d->%d out of range (%d blocks)", fe.From, fe.To, len(g.Blocks))
		}
		e := &Edge{From: fe.From, To: fe.To, Count: fe.Count, Kind: fe.Kind}
		g.Blocks[e.From].Succs = append(g.Blocks[e.From].Succs, e)
		g.Blocks[e.To].Preds = append(g.Blocks[e.To].Preds, e)
	}
	return g, nil
}
