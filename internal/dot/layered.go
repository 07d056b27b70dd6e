package dot

import (
	"bufio"
	"fmt"
	"io"

	"antlayer/internal/layering"
)

// WriteLayered serialises a layering as a Graphviz-compatible DOT document
// in which every layer becomes a `rank=same` subgraph, so external tools
// render exactly the layer assignment this library computed. The topmost
// layer is emitted first; invisible chain edges between per-layer anchor
// nodes pin the vertical order.
func WriteLayered(w io.Writer, l *layering.Layering, graphName string) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if graphName == "" {
		graphName = "G"
	}
	g := l.Graph()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %s {\n", quoteIfNeeded(graphName))
	fmt.Fprintln(bw, "\trankdir=TB;")

	ids := nodeIDs(g)
	layers := l.Layers()
	// Anchor chain: one invisible node per layer, top layer first.
	fmt.Fprint(bw, "\t")
	for li := len(layers); li >= 1; li-- {
		fmt.Fprintf(bw, "__rank%d", li)
		if li > 1 {
			fmt.Fprint(bw, " -> ")
		}
	}
	fmt.Fprintln(bw, " [style=invis];")
	for li := len(layers); li >= 1; li-- {
		fmt.Fprintf(bw, "\t__rank%d [style=invis, shape=point, width=0];\n", li)
	}

	for li := len(layers); li >= 1; li-- {
		fmt.Fprintf(bw, "\t{ rank=same; __rank%d;", li)
		for _, v := range layers[li-1] {
			fmt.Fprintf(bw, " %s;", quoteIfNeeded(ids[v]))
		}
		fmt.Fprintln(bw, " }")
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "\t%s -> %s;\n", quoteIfNeeded(ids[e.U]), quoteIfNeeded(ids[e.V]))
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
