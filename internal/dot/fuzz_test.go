package dot

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"antlayer/internal/dag"
)

// TestParserNeverPanics feeds the tokenizer/parser random byte soup and
// asserts it fails gracefully (error or success, never a panic). The
// parser guards a CLI entry point, so robustness against hostile input is
// part of its contract.
func TestParserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	alphabet := []byte(`digraph{}[];,="->ab \n\t/**/#`)
	for i := 0; i < 500; i++ {
		n := rng.Intn(120)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", b, r)
				}
			}()
			_, _ = Read(bytes.NewReader(b))
		}()
	}
}

// TestEdgeListNeverPanics does the same for the edge-list reader.
func TestEdgeListNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	alphabet := []byte("0123456789 -\n#x")
	for i := 0; i < 500; i++ {
		n := rng.Intn(80)
		b := make([]byte, n)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("edge list reader panicked on %q: %v", b, r)
				}
			}()
			_, _ = ReadEdgeList(bytes.NewReader(b))
		}()
	}
}

// FuzzReadEdgeListNamed mirrors the DOT soup harness for the edge-list
// reader guarding the /layer, /jobs and `daglayer batch` entry points:
// whatever the bytes, the reader must return a clean error or a
// well-formed named graph, never panic. The seed corpus walks the
// documented failure modes — malformed lines, truncated bodies, duplicate
// edges and self-loops (which must error: dag.Graph rejects both), header
// lies — so plain `go test` already exercises each rejection path, and
// `go test -fuzz=FuzzReadEdgeListNamed` explores from there.
func FuzzReadEdgeListNamed(f *testing.F) {
	for _, seed := range []string{
		"",                         // empty input: header missing
		"3 2\n2 1\n1 0\n",          // well-formed
		"# comment\n\n3 1\n2 0\n",  // comments and blank lines skipped
		"2 1\n1 1\n",               // self-loop must error
		"3 2\n2 1\n2 1\n",          // duplicate edge must error
		"2 1\n5 0\n",               // endpoint out of range
		"3 2\n2 1\n",               // truncated: fewer edges than claimed
		"3 99\n2 1\n1 0\n",         // header claims impossible edge count
		"-1 -1\n",                  // negative counts
		"99999999999999999999 1\n", // header overflow
		"3 2\n2 one\n1 0\n",        // non-numeric endpoint
		"x y\n",                    // non-numeric header
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		g, names, err := ReadEdgeListNamed(strings.NewReader(data))
		if err != nil {
			if g != nil || names != nil {
				t.Fatalf("error %v alongside non-nil graph/names", err)
			}
			return
		}
		// A successful parse must uphold the contract every consumer
		// leans on: one synthesised v<N> name and label per vertex...
		if len(names) != g.N() {
			t.Fatalf("%d names for %d vertices", len(names), g.N())
		}
		for v, name := range names {
			if want := fmt.Sprintf("v%d", v); name != want || g.Label(v) != want {
				t.Fatalf("vertex %d named %q, labelled %q, want %q", v, name, g.Label(v), want)
			}
		}
		// ...a simple graph (no self-loops, no duplicates)...
		seen := map[[2]int]bool{}
		for _, e := range g.Edges() {
			if e.U == e.V {
				t.Fatalf("self-loop (%d,%d) survived", e.U, e.V)
			}
			if seen[[2]int{e.U, e.V}] {
				t.Fatalf("duplicate edge (%d,%d) survived", e.U, e.V)
			}
			seen[[2]int{e.U, e.V}] = true
		}
		// ...and a round trip through the writer.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if h.N() != g.N() || h.M() != g.M() {
			t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", h.N(), h.M(), g.N(), g.M())
		}
	})
}

// FuzzReadDOT is FuzzReadEdgeListNamed for the DOT reader, the default
// body format of /layer and /jobs: whatever the bytes, Read returns a clean
// error or a valid graph with one distinct name per vertex, and writing
// that graph back out and reading it again keeps its vertex and edge
// counts. The seed corpus is the inputs of dot_test.go, accepted and
// rejected alike.
func FuzzReadDOT(f *testing.F) {
	for _, seed := range []string{
		`digraph G { a -> b; b -> c; a -> c; }`,
		`digraph { a -> b -> c -> d; }`,
		"digraph {\n\tnode [shape=box];\n\ta [label=\"Vertex A\", width=2.5];\n\tb [width=0.5]\n\ta -> b [style=dotted];\n}",
		"\n// leading comment\ndigraph { /* block\ncomment */ a -> b; # trailing\n}",
		"digraph {\na -> b; // tail comment\n// full-line comment\nb -> c;\n}",
		"digraph { a -> b; } // eof comment",
		"# preprocessor-style header\ndigraph {\na -> b # tail\n# between\nb -> c\n}",
		"digraph { a -> b; } # eof",
		"digraph { a /* inline */ -> /* again */ b; }",
		"digraph {\na -> b;\n/* spans\nseveral\nlines */\nb -> c;\n}",
		`digraph { a [label="A" /* why */ , width=2]; }`,
		`digraph { a -> b -> c [style=dotted, weight=2]; }`,
		`digraph { "n 1" -> mid -> "n 2"; }`,
		`digraph { 1->2->3; }`,
		"digraph {\n0 [width=1.5]\n0->1 [weight=2] // chain tail\n}",
		`digraph { a [width=1.5e+1]; a -> b; }`,
		`digraph { "node one" -> "node:two"; }`,
		`strict digraph X { a -> b; }`,
		`digraph { a -> b; a -> b; }`,
		``,
		`graph { a -- b; }`,
		`digraph { a -> ; }`,
		`digraph { a -> a; }`,
		`digraph { a -> b`,
		`digraph { a [x] }`,
		`digraph { } trailing`,
		`digraph { "unterminated`,
		`digraph { a -> b; } }`,
		`digraph { a - b; }`,
		`digraph { a [width=abc]; }`,
		// Write once merged these on the way back: equal labels, an empty
		// label next to the v<N> it falls back to, a keyword node id.
		`digraph { a [label="b"]; b; }`,
		`digraph { a [label=""]; v0 -> c; }`,
		`digraph { "node" [width=2]; }`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		n, err := ReadString(data)
		if err != nil {
			if n != nil {
				t.Fatalf("error %v alongside a non-nil graph", err)
			}
			return
		}
		g := n.Graph
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails Validate: %v", err)
		}
		if len(n.Names) != g.N() || len(n.ID) != g.N() {
			t.Fatalf("%d names, %d ids for %d vertices", len(n.Names), len(n.ID), g.N())
		}
		for v, name := range n.Names {
			if n.ID[name] != v {
				t.Fatalf("vertex %d named %q, but %q maps to %d", v, name, name, n.ID[name])
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, g, "fuzz"); err != nil {
			t.Fatal(err)
		}
		h, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		if h.Graph.N() != g.N() || h.Graph.M() != g.M() {
			t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d\n%s", h.Graph.N(), h.Graph.M(), g.N(), g.M(), buf.String())
		}
	})
}

// TestLabelRoundTripQuick writes graphs whose labels contain arbitrary
// strings and checks they survive the DOT round trip.
func TestLabelRoundTripQuick(t *testing.T) {
	f := func(label string) bool {
		// The writer emits quoted strings; control characters other than
		// \n and \t are outside the supported subset.
		for _, r := range label {
			if r < 0x20 && r != '\n' && r != '\t' {
				return true
			}
		}
		g := dag.New(2)
		g.MustAddEdge(1, 0)
		g.SetLabel(0, label)
		var buf bytes.Buffer
		if err := Write(&buf, g, "q"); err != nil {
			return false
		}
		parsed, err := Read(&buf)
		if err != nil {
			return false
		}
		if label == "" {
			return true // empty labels fall back to generated names
		}
		for v := 0; v < parsed.Graph.N(); v++ {
			if parsed.Graph.Label(v) == label {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
