package graph

import (
	"fmt"
)

// Network is an ordered sequence of blocks forming a full CNN.
type Network struct {
	Name   string
	Input  Shape // per-sample network input (e.g. 3x224x224)
	Blocks []*Block
}

// NewNetwork builds a network and validates the block chain.
func NewNetwork(name string, input Shape, blocks ...*Block) (*Network, error) {
	n := &Network{Name: name, Input: input, Blocks: blocks}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// MustNetwork is NewNetwork that panics on error; intended for the static
// model builders whose structures are fixed at compile time.
func MustNetwork(name string, input Shape, blocks ...*Block) *Network {
	n, err := NewNetwork(name, input, blocks...)
	if err != nil {
		panic(err)
	}
	return n
}

// Validate checks that the block chain is shape consistent end to end.
func (n *Network) Validate() error {
	if !n.Input.Valid() {
		return fmt.Errorf("network %s: invalid input shape %v", n.Name, n.Input)
	}
	if len(n.Blocks) == 0 {
		return fmt.Errorf("network %s: no blocks", n.Name)
	}
	prev := n.Input
	for i, b := range n.Blocks {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("network %s: %w", n.Name, err)
		}
		if b.In != prev {
			return fmt.Errorf("network %s block %d (%s): input %v != upstream %v",
				n.Name, i, b.Name, b.In, prev)
		}
		prev = b.Out
	}
	return nil
}

// Layers returns all explicit layers in execution order.
func (n *Network) Layers() []*Layer {
	var out []*Layer
	for _, b := range n.Blocks {
		out = append(out, b.Layers()...)
	}
	return out
}

// Params returns the total learnable parameter element count.
func (n *Network) Params() int64 {
	var p int64
	for _, b := range n.Blocks {
		p += b.Params()
	}
	return p
}

// ParamBytes returns total parameter bytes at WordBytes precision.
func (n *Network) ParamBytes() int64 { return n.Params() * WordBytes }

// MACs returns the total forward MAC count for n samples.
func (n *Network) MACs(samples int) int64 {
	var m int64
	for _, b := range n.Blocks {
		m += b.MACs(samples)
	}
	return m
}

// Output returns the network's final output shape.
func (n *Network) Output() Shape { return n.Blocks[len(n.Blocks)-1].Out }

// BlockByName returns the first block with the given name, or nil.
func (n *Network) BlockByName(name string) *Block {
	for _, b := range n.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// LayerFootprints returns the per-layer inter-layer data size (input plus
// output bytes) and parameter bytes for every explicit layer, scaled to a
// mini-batch of batch samples — the two series of Fig. 3.
func (n *Network) LayerFootprints(batch int) (interLayer, params []int64) {
	ls := n.Layers()
	interLayer = make([]int64, len(ls))
	params = make([]int64, len(ls))
	for i, l := range ls {
		interLayer[i] = l.InterLayerBytes() * int64(batch)
		params[i] = l.ParamBytes()
	}
	return interLayer, params
}
