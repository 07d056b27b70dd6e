// Package dot reads and writes graphs in a practical subset of the Graphviz
// DOT language and in a compact edge-list format.
//
// The DOT subset covers what graph-drawing benchmark corpora (such as the
// AT&T graphs the paper evaluated on) actually use: a single
// "digraph name { ... }" block containing node statements with optional
// [label="...", width=1.5] attribute lists and edge statements
// "a -> b -> c;". Subgraphs, ports and HTML labels are not supported.
package dot

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"antlayer/internal/dag"
)

// Named wraps a Graph together with the mapping between external node names
// and internal dense vertex identifiers.
type Named struct {
	Graph *dag.Graph
	// Names[v] is the external name of vertex v.
	Names []string
	// ID maps an external name to its vertex.
	ID map[string]int
}

// NewNamed returns an empty named graph.
func NewNamed() *Named {
	return &Named{Graph: dag.New(0), ID: map[string]int{}}
}

// Vertex returns the vertex for name, creating it on first use.
func (n *Named) Vertex(name string) int {
	if v, ok := n.ID[name]; ok {
		return v
	}
	v := n.Graph.AddVertex()
	n.Graph.SetLabel(v, name)
	n.Names = append(n.Names, name)
	n.ID[name] = v
	return v
}

// Write serialises g in DOT format. Vertex names are the graph labels when
// set and v<N> otherwise. Non-default widths are emitted as width attributes.
func Write(w io.Writer, g *dag.Graph, graphName string) error {
	if graphName == "" {
		graphName = "G"
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %s {\n", quoteIfNeeded(graphName))
	ids := nodeIDs(g)
	for v := 0; v < g.N(); v++ {
		var attrs []string
		if g.Label(v) != "" && g.Label(v) != ids[v] {
			attrs = append(attrs, fmt.Sprintf("label=%s", quoteIfNeeded(g.Label(v))))
		}
		if g.Width(v) != 1.0 {
			attrs = append(attrs, fmt.Sprintf("width=%s", strconv.FormatFloat(g.Width(v), 'g', -1, 64)))
		}
		if len(attrs) > 0 || (g.InDegree(v) == 0 && g.OutDegree(v) == 0) {
			fmt.Fprintf(bw, "\t%s", quoteIfNeeded(ids[v]))
			if len(attrs) > 0 {
				fmt.Fprintf(bw, " [%s]", strings.Join(attrs, ", "))
			}
			fmt.Fprintln(bw, ";")
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "\t%s -> %s;\n", quoteIfNeeded(ids[e.U]), quoteIfNeeded(ids[e.V]))
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// nodeIDs returns the DOT node id of every vertex: its label when set and
// v<N> otherwise, unless an earlier vertex already holds that id (two equal
// labels, or a label that spells another vertex's v<N>). Such a vertex gets
// v<N>_<k> with the least free k instead, so the ids are distinct and
// reading the output back yields every vertex; Write carries its label in
// a label attribute.
func nodeIDs(g *dag.Graph) []string {
	ids := make([]string, g.N())
	taken := make(map[string]bool, g.N())
	for v := range ids {
		id := g.Label(v)
		if id == "" {
			id = "v" + strconv.Itoa(v)
		}
		for k := 1; taken[id]; k++ {
			id = "v" + strconv.Itoa(v) + "_" + strconv.Itoa(k)
		}
		taken[id] = true
		ids[v] = id
	}
	return ids
}

// dotKeywords are the words DOT reserves, case-insensitively; a node id
// spelling one must be quoted, or "node [width=2]" reads as a default.
var dotKeywords = [...]string{"digraph", "edge", "graph", "node", "strict", "subgraph"}

func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	plain := true
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				plain = false
			}
		default:
			plain = false
		}
		if !plain {
			break
		}
	}
	for _, kw := range dotKeywords {
		if strings.EqualFold(s, kw) {
			plain = false
		}
	}
	if plain {
		return s
	}
	// Minimal DOT quoting that round-trips through readQuoted: only the
	// backslash, the quote, newline and tab need escaping; all other
	// runes (including non-ASCII) pass through verbatim.
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Read parses DOT input and returns the named graph.
func Read(r io.Reader) (*Named, error) {
	toks, err := tokenize(r)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parse()
}

// ReadString is Read over a string.
func ReadString(s string) (*Named, error) {
	return Read(strings.NewReader(s))
}

// WriteEdgeList serialises g as "n m" followed by one "u v" line per edge.
// The format is the storage format of the benchmark corpus directory
// produced by cmd/corpusgen.
func WriteEdgeList(w io.Writer, g *dag.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d %d\n", g.N(), g.M())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d\n", e.U, e.V)
	}
	return bw.Flush()
}

// MaxEdgeListVertices bounds the vertex count ReadEdgeList accepts, so a
// corrupt header cannot force a multi-gigabyte allocation.
const MaxEdgeListVertices = 1 << 22

// ReadEdgeList parses the edge-list format written by WriteEdgeList.
func ReadEdgeList(r io.Reader) (*dag.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line, err := nextLine(sc)
	if err != nil {
		return nil, fmt.Errorf("dot: edge list header: %w", err)
	}
	var n, m int
	if _, err := fmt.Sscanf(line, "%d %d", &n, &m); err != nil {
		return nil, fmt.Errorf("dot: bad edge list header %q: %w", line, err)
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("dot: negative counts in header %q", line)
	}
	if n > MaxEdgeListVertices {
		return nil, fmt.Errorf("dot: header claims %d vertices, limit %d", n, MaxEdgeListVertices)
	}
	if max := n * (n - 1) / 2; m > max {
		return nil, fmt.Errorf("dot: header claims %d edges, simple-DAG maximum for n=%d is %d", m, n, max)
	}
	g := dag.New(n)
	for i := 0; i < m; i++ {
		line, err := nextLine(sc)
		if err != nil {
			return nil, fmt.Errorf("dot: edge %d/%d: %w", i+1, m, err)
		}
		var u, v int
		if _, err := fmt.Sscanf(line, "%d %d", &u, &v); err != nil {
			return nil, fmt.Errorf("dot: bad edge line %q: %w", line, err)
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ReadEdgeListNamed is ReadEdgeList plus the v<N> name synthesis shared
// by every consumer that renders or reports vertices: edge lists carry no
// names, so vertex v is named (and labelled) "v<N>", the same fallback
// Write uses.
func ReadEdgeListNamed(r io.Reader) (*dag.Graph, []string, error) {
	g, err := ReadEdgeList(r)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, g.N())
	for v := range names {
		names[v] = fmt.Sprintf("v%d", v)
		g.SetLabel(v, names[v])
	}
	return g, names, nil
}

func nextLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		return s, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// SortedNames returns the node names sorted; useful for deterministic tests.
func (n *Named) SortedNames() []string {
	out := append([]string(nil), n.Names...)
	sort.Strings(out)
	return out
}
