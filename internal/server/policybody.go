package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"github.com/pglp/panda/internal/policygraph"
	"github.com/pglp/panda/internal/server/wire"
)

// decodePolicyBody decodes a GET /v2/policy response body. The form the
// server writes, {"user":U,"epsilon":E,"version":V,"graph":G} with
// optional trailing whitespace, is split without scanning G, which only
// Graph.UnmarshalJSON reads. Any other body, and any failure on the
// way, goes to the reference decoding — json.Decoder into wire.Policy,
// then decodePolicy — so what is accepted, and the values decoded, are
// the reference's by construction.
func decodePolicyBody(body []byte) (ClientPolicy, error) {
	if cp, ok := splitPolicyBody(body); ok {
		return cp, nil
	}
	return decodePolicyReference(body)
}

// decodePolicyReference is the reference decoding of a policy body. It
// decides every body splitPolicyBody does not take, and FuzzPolicyBody
// holds the two to the same answers.
func decodePolicyReference(body []byte) (ClientPolicy, error) {
	var raw wire.Policy
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&raw); err != nil {
		return ClientPolicy{}, fmt.Errorf("server client: decoding response: %w", err)
	}
	return decodePolicy(raw)
}

// splitPolicyBody is decodePolicyBody's fast path. It reports false on
// any input it does not take; it takes none the reference rejects, and
// decodes what it takes to the reference's values: the keys are exact
// and in order, each number is a JSON number that strconv parses to the
// value, or the error, encoding/json gets from it, and G must decode as
// exactly one JSON value, so the closing brace after it is the
// envelope's.
func splitPolicyBody(b []byte) (ClientPolicy, bool) {
	b = bytes.TrimRight(b, " \t\r\n")
	var (
		cp                    ClientPolicy
		user, eps, ver, graph []byte
		ok                    bool
	)
	if b, ok = bytes.CutPrefix(b, []byte(`{"user":`)); !ok {
		return ClientPolicy{}, false
	}
	if user, b, ok = cutNumber(b, `,"epsilon":`); !ok {
		return ClientPolicy{}, false
	}
	if eps, b, ok = cutNumber(b, `,"version":`); !ok {
		return ClientPolicy{}, false
	}
	if ver, b, ok = cutNumber(b, `,"graph":`); !ok {
		return ClientPolicy{}, false
	}
	if graph, ok = bytes.CutSuffix(b, []byte{'}'}); !ok {
		return ClientPolicy{}, false
	}
	var err error
	if cp.User, err = strconv.Atoi(string(user)); err != nil {
		return ClientPolicy{}, false
	}
	if cp.Epsilon, err = strconv.ParseFloat(string(eps), 64); err != nil {
		return ClientPolicy{}, false
	}
	if cp.Version, err = strconv.Atoi(string(ver)); err != nil {
		return ClientPolicy{}, false
	}
	var g policygraph.Graph
	if g.UnmarshalJSON(graph) != nil {
		return ClientPolicy{}, false
	}
	cp.Graph = &g
	return cp, true
}

// cutNumber splits b into a leading JSON number, which must be followed
// directly by sep, and what follows sep.
func cutNumber(b []byte, sep string) (num, rest []byte, ok bool) {
	n := numberLen(b)
	if n == 0 {
		return nil, nil, false
	}
	rest, ok = bytes.CutPrefix(b[n:], []byte(sep))
	return b[:n], rest, ok
}

// numberLen returns the length of the JSON number
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at the start of b, or
// 0 if b does not start with one.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// skipDigits returns the index of the first non-digit of b at or after i.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
