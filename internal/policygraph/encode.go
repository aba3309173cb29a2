package policygraph

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// graphJSON is the wire representation of a policy graph. Publishing the
// policy graph is part of the system's transparency story (paper §2.1:
// "By making the policy graph public, the system has a high level of
// transparency").
type graphJSON struct {
	Nodes int      `json:"nodes"`
	Edges [][2]int `json:"edges"`
}

// MarshalJSON implements json.Marshaler. The output is byte-identical to
// encoding/json's rendering of graphJSON{Nodes, Edges()}: compact, edges
// (u, v) with u < v in lexicographic order.
//
// The encoding is memoised on the graph until the next AddEdge,
// RemoveEdge or UnmarshalJSON, so a graph shared by many users is encoded
// once. The returned slice is shared by every caller and must not be
// modified.
func (g *Graph) MarshalJSON() ([]byte, error) {
	if b := g.enc.Load(); b != nil {
		return *b, nil
	}
	b := g.appendJSON(make([]byte, 0, 24+12*g.m))
	b = b[:len(b):len(b)] // an append by a caller must copy, not scribble
	g.enc.Store(&b)
	return b, nil
}

// dropEncoding forgets the memoised MarshalJSON output. The Load keeps
// graph building, which mutates many times before any encode, off the
// atomic store.
func (g *Graph) dropEncoding() {
	if g.enc.Load() != nil {
		g.enc.Store(nil)
	}
}

// appendJSON appends the wire form of g to b. Walking each node's
// ascending neighbours above it yields the edges in Edges() order
// without materialising the edge list.
func (g *Graph) appendJSON(b []byte) []byte {
	b = append(b, `{"nodes":`...)
	b = strconv.AppendInt(b, int64(g.n), 10)
	b = append(b, `,"edges":[`...)
	sep := false
	for u := range g.n {
		for _, v := range g.above(u) {
			if sep {
				b = append(b, ',')
			}
			sep = true
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(u), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ']')
		}
	}
	return append(b, "]}"...)
}

// UnmarshalJSON implements json.Unmarshaler. The form MarshalJSON emits,
// with any JSON whitespace, is parsed in one pass; any other input is
// decoded by encoding/json with the same checks and errors. On error g
// is left unchanged.
func (g *Graph) UnmarshalJSON(data []byte) error {
	h, err := decodeFast(data)
	if errors.Is(err, errNotFast) {
		h, err = decodeReflect(data)
	}
	if err != nil {
		return err
	}
	g.n, g.adj, g.m = h.n, h.adj, h.m
	g.enc.Store(nil)
	return nil
}

// decodeReflect is the reference decoder: encoding/json into graphJSON,
// then the range and self-loop checks.
func decodeReflect(data []byte) (*Graph, error) {
	var w graphJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	if err := checkNodes(w.Nodes); err != nil {
		return nil, err
	}
	g := New(w.Nodes)
	for _, e := range w.Edges {
		if err := checkEdge(e, w.Nodes); err != nil {
			return nil, err
		}
		g.AddEdge(e[0], e[1])
	}
	return g, nil
}

// checkNodes refuses a node count no graph may have, before anything
// of that size is allocated.
func checkNodes(n int) error {
	if n < 0 {
		return fmt.Errorf("policygraph: negative node count %d", n)
	}
	if n > MaxNodes {
		return fmt.Errorf("policygraph: node count %d above MaxNodes (%d)", n, MaxNodes)
	}
	return nil
}

func checkEdge(e [2]int, n int) error {
	if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
		return fmt.Errorf("policygraph: edge %v out of range [0,%d)", e, n)
	}
	if e[0] == e[1] {
		return fmt.Errorf("policygraph: self-loop on node %d", e[0])
	}
	return nil
}

// errNotFast reports that the input strays from the form decodeFast
// parses; it never escapes UnmarshalJSON.
var errNotFast = errors.New("policygraph: not the canonical graph form")

// decodeFast parses exactly {"nodes":N,"edges":[[u,v],...]} — the keys in
// that order, unescaped, every number a JSON integer of at most
// maxIntDigits digits — with any JSON whitespace between tokens. Anything else, even valid
// JSON that encoding/json would accept (other key order or case, unknown
// keys, null, short or long edge arrays), returns errNotFast so that
// decodeReflect decides. Inputs it does parse get decodeReflect's errors:
// the range and self-loop checks run in edge order and the first failure
// is reported once the whole input has parsed. The edges are collected
// in one buffer and handed to fromEdges.
func decodeFast(data []byte) (*Graph, error) {
	p := parser{b: data}
	if !p.char('{') || !p.lit(`"nodes"`) || !p.char(':') {
		return nil, errNotFast
	}
	n, ok := p.int()
	if !ok || !p.char(',') || !p.lit(`"edges"`) || !p.char(':') || !p.char('[') {
		return nil, errNotFast
	}
	bad := checkNodes(n)
	var flat []int32
	if bad == nil {
		// Every edge opens with '[', so this bounds the edge count.
		flat = make([]int32, 0, 2*bytes.Count(p.b[p.i:], []byte{'['}))
	}
	if !p.char(']') {
		for {
			if !p.char('[') {
				return nil, errNotFast
			}
			u, ok1 := p.int()
			if !ok1 || !p.char(',') {
				return nil, errNotFast
			}
			v, ok2 := p.int()
			if !ok2 || !p.char(']') {
				return nil, errNotFast
			}
			if bad == nil {
				if bad = checkEdge([2]int{u, v}, n); bad == nil {
					flat = append(flat, int32(u), int32(v))
				}
			}
			if p.char(']') {
				break
			}
			if !p.char(',') {
				return nil, errNotFast
			}
		}
	}
	if !p.char('}') {
		return nil, errNotFast
	}
	p.ws()
	if p.i != len(p.b) {
		return nil, errNotFast
	}
	if bad != nil {
		return nil, bad
	}
	return fromEdges(n, flat), nil
}

// parser is decodeFast's cursor over the input.
type parser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// char skips whitespace, then consumes c if the input continues with it.
func (p *parser) char(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// lit skips whitespace, then consumes tok if the input continues with it.
func (p *parser) lit(tok string) bool {
	p.ws()
	if len(p.b)-p.i < len(tok) || string(p.b[p.i:p.i+len(tok)]) != tok {
		return false
	}
	p.i += len(tok)
	return true
}

// maxIntDigits is the most decimal digits int parses: every 18-digit
// number fits an int64, so no per-digit overflow check is needed.
const maxIntDigits = 18

// int skips whitespace, then consumes a JSON integer of at most
// maxIntDigits digits: -?(0|[1-9][0-9]*). Longer integers, valid in an
// int or not, are refused; encoding/json then decides on them. A
// fraction or exponent needs no check here: decodeFast's next token is
// always ',' or ']', which '.', 'e' and 'E' never match.
func (p *parser) int() (int, bool) {
	p.ws()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	start := p.i
	v := 0
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		v = v*10 + int(p.b[p.i]-'0')
		p.i++
	}
	digits := p.i - start
	if digits == 0 || digits > maxIntDigits || (digits > 1 && p.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// WriteDOT renders the graph in Graphviz DOT format for debugging and
// documentation.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "graph %q {\n", name); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "  %d -- %d;\n", e[0], e[1]); err != nil {
			return err
		}
	}
	for _, u := range g.IsolatedNodes() {
		if _, err := fmt.Fprintf(bw, "  %d;\n", u); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
