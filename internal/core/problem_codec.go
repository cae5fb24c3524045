package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/envelope"
	"repro/internal/extract"
)

// This file implements the durable-compile-tier codec: a compiled Problem
// — the expensive, immutable artifact behind every sampling session — is
// serialized to a versioned "GDSP" binary blob and rebuilt without
// re-running extract.Transform, the dominant compile cost. The blob holds
// the formula, the assumption list, the extracted circuit and the
// extraction tables; decode parses and validates them, then compiles the
// engine and the verifier from them with the calls Compile and Specialize
// make. So a loaded Problem verifies against the formula whose hash is
// its key, whatever the blob's writer compiled, and a fleet replica loads
// a peer-compiled artifact from the shared content-addressed store far
// faster than recompiling it (the `paperbench -exp cache` row measures
// exactly this).
//
// The format follows GDSS/GDSC over the shared internal/envelope codec:
// little-endian, length-prefixed sections, every length bounds-checked
// against the remaining input before allocation, and a SHA-256 trailer
// over all preceding bytes checked before any field parse — a torn or
// corrupted file is a clean error, never a panic (FuzzOpen guards the
// envelope; FuzzDecodeProblem seals fuzzed bodies, so it guards every
// field past the trailer). Beyond the trailer, decode cross-checks the
// content address: the embedded formula must hash
// (cnf.Formula.ContentHash) to the embedded key, so a blob filed under
// the wrong key in the store can never serve the wrong problem.
//
// Derived state is NOT serialized: the engine tape, the verify plan and
// the cache tile compile from the circuit, input node names rebuild from
// their CNF variables. extract.Result.Bindings (logic.Expr trees used
// only by offline tooling) is not stored, and Compile drops it too, so a
// decoded Problem holds the same data as a compiled one. Everything the
// sampling runtime reads (circuit, NodeOf, projection provenance)
// round-trips exactly, which is what makes store-loaded
// Problems stream bit-identical solutions to freshly compiled ones (the
// differential test in problem_codec_test.go and e2e shard tier).

// ProblemVersion is the problem codec version: one layout whose
// assumption list is empty for an unspecialized problem. Any other
// version — including the earlier layouts that also stored the engine
// tape and verify plan (1, 2) or a per-output clause-provenance table
// (3) — is rejected: stored artifacts outlive the process that wrote
// them, and the store quarantines what fails decode and recompiles it.
const ProblemVersion = 4

// problemMagic opens every encoded problem.
const problemMagic = "GDSP"

// ErrBadProblem is wrapped by every problem decode failure, so the store
// layer can map "this blob is garbage" to a quarantine-and-miss without
// string matching.
var ErrBadProblem = errors.New("core: invalid problem encoding")

// maxProblemDim is a sanity bound on the decoded variable count — far
// past any real compiled instance, but small enough that a forged field
// can never drive a multi-gigabyte allocation (Decoder.Count bounds
// allocations by the remaining input anyway; this bounds derived
// products).
const maxProblemDim = 1 << 26

// b2u converts a bool to 0/1 without a data-dependent branch (the compiler
// lowers it to a plain byte load — Go bools are 0/1 in memory).
func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// MarshalBinary encodes the compiled problem in the versioned GDSP binary
// format, with a SHA-256 trailer over the whole encoding. The result is
// self-contained: DecodeProblem rebuilds an equivalent Problem from it
// alone.
func (p *Problem) MarshalBinary() ([]byte, error) {
	if len(p.key) > 0xFFFF {
		return nil, fmt.Errorf("%w: oversized key", ErrBadProblem)
	}
	f, ext := p.formula, p.ext
	c := ext.Circuit
	est := 256 + len(p.key) + 4*len(p.assume) + 8*len(f.Clauses) + 4*len(f.Projection) +
		14*len(c.Nodes) + 4*len(c.Inputs) + 5*len(c.Outputs) + 8*len(ext.NodeOf)
	for _, cl := range f.Clauses {
		est += 4 * len(cl)
	}
	e := envelope.NewEncoder(problemMagic, ProblemVersion, est)
	e.Str(p.key)
	encLits(e, p.assume)

	// Formula.
	e.U32(uint32(f.NumVars))
	e.U32(uint32(len(f.Clauses)))
	for _, cl := range f.Clauses {
		encLits(e, cl)
	}
	e.Ints(f.Projection)

	// Circuit. Names are not stored: input and pinned nodes rebuild theirs
	// from Var.
	e.U32(uint32(len(c.Nodes)))
	for _, nd := range c.Nodes {
		e.U8(uint8(nd.Type))
		e.U8(b2u(nd.Val))
		e.U32(uint32(int32(nd.Var)))
		e.U32(uint32(len(nd.Fanin)))
		for _, fid := range nd.Fanin {
			e.U32(uint32(fid))
		}
	}
	e.U32(uint32(len(c.Inputs)))
	for _, id := range c.Inputs {
		e.U32(uint32(id))
	}
	e.U32(uint32(len(c.Outputs)))
	for _, o := range c.Outputs {
		e.U32(uint32(o.Node))
		e.U8(b2u(o.Target))
	}

	// Extraction (minus Bindings; see the file comment). NodeOf is written
	// as (variable, node) pairs, variable-ascending.
	e.Ints(ext.PrimaryInputs)
	e.Ints(ext.Intermediates)
	e.Ints(ext.PrimaryOutputs)
	e.U32(uint32(len(ext.NodeOf)))
	for i, id := range ext.NodeOf {
		e.U32(uint32(int32(i + 1)))
		e.U32(uint32(id))
	}
	e.U64(uint64(ext.TransformTime.Nanoseconds()))
	e.U32(uint32(ext.Windows))
	e.U32(uint32(ext.Fallbacks))
	e.U32(uint32(ext.SignatureHits))

	return e.Seal(envelope.SHA256), nil
}

// DecodeProblem parses and validates a GDSP encoding back into a live
// Problem. It never panics: truncated, corrupted, or version-mismatched
// input returns an error wrapping ErrBadProblem. Validation is structural
// (every index bounds-checked, circuit topology and arity re-checked, the
// embedded formula re-hashed against the embedded key); the engine and
// the verifier then compile from the decoded circuit, formula and
// assumptions exactly as Compile and Specialize build them, so nothing
// the sampler executes is taken on the writer's word.
func DecodeProblem(data []byte) (*Problem, error) {
	d, err := envelope.Open(data, problemMagic, envelope.SHA256, ProblemVersion, ProblemVersion, ErrBadProblem)
	if err != nil {
		return nil, err
	}
	key := d.Str()
	assume := decInts[cnf.Lit](d, "assumptions", nil)
	f := decodeFormula(d)
	circ := decodeCircuit(d, f)
	ext := decodeExtraction(d, f, circ)
	if err := d.Close(); err != nil {
		return nil, err
	}
	if len(assume) == 0 {
		assume = nil
	}
	// Assumptions must arrive in canonical, validated form — decode refuses
	// to "fix" a non-canonical set because the key cross-check below hashes
	// exactly what the writer canonicalized.
	if err := cnf.ValidateCanonicalAssume(f.NumVars, assume); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadProblem, err)
	}
	// The content-address cross-check: the blob serves exactly the formula
	// (specialized under exactly the assumptions) its key names, or it
	// serves nothing. AssumeKey degenerates to the content hash when the
	// assumption set is empty.
	if h := cnf.AssumeKey(f.ContentHash(), assume); h != key {
		return nil, fmt.Errorf("%w: embedded content hashes to %s, key says %s", ErrBadProblem, abbrev(h), abbrev(key))
	}
	if len(circ.Inputs) == 0 {
		return nil, fmt.Errorf("%w: circuit has no primary inputs", ErrBadProblem)
	}
	return newProblem(f, ext, key, assume), nil
}

// encLits writes a literal list as a u32 count plus i32 values.
func encLits(e *envelope.Encoder, lits []cnf.Lit) {
	e.U32(uint32(len(lits)))
	for _, l := range lits {
		e.U32(uint32(int32(l)))
	}
}

// decInts reads a u32 count plus i32 values (encLits, Encoder.Ints) into
// storage from sl.
func decInts[T ~int](d *envelope.Decoder, what string, sl *slab[T]) []T {
	raw := d.Take(4 * d.Count(4, what))
	if d.Err() != nil {
		return nil
	}
	out := sl.take(len(raw) / 4)
	for i := range out {
		out[i] = T(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return out
}

// slabChunk caps the element count of one slab block.
const slabChunk = 1 << 14

// slab hands out consecutive, capacity-capped windows of shared blocks,
// so decoding tens of thousands of short slices (clause literals and
// fanins) costs a few block allocations instead of one per slice. The
// windows never overlap, so appending to one cannot write into
// its neighbour. Blocks double from 64 elements up to slabChunk, so a
// small problem does not pay for a large block. A nil slab allocates each
// slice on its own.
type slab[T any] struct {
	free []T
	next int // element count of the next block
}

func (s *slab[T]) take(n int) []T {
	if s == nil {
		return make([]T, n)
	}
	if s.free == nil || n > len(s.free) {
		s.next = min(max(2*s.next, 64), slabChunk)
		s.free = make([]T, max(n, s.next))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

func decodeFormula(d *envelope.Decoder) *cnf.Formula {
	nv := int(d.U32())
	if d.Err() == nil && (nv < 1 || nv > maxProblemDim) {
		d.Fail("implausible variable count %d", nv)
	}
	ncl := d.Count(4, "clauses")
	f := &cnf.Formula{NumVars: nv}
	f.Clauses = make([]cnf.Clause, 0, ncl)
	var lits slab[cnf.Lit]
	for i := 0; i < ncl; i++ {
		cl := decInts(d, "clause literals", &lits)
		if d.Err() != nil {
			return f
		}
		for j, l := range cl {
			if l == 0 || l.Var() > nv {
				d.Fail("clause %d literal %d is %d over %d variables", i, j, l, nv)
				return f
			}
		}
		f.Clauses = append(f.Clauses, cl)
	}
	proj := d.Ints("projection")
	if d.Err() == nil && len(proj) > 0 {
		if err := cnf.ValidateProjection(nv, proj); err != nil {
			d.Fail("%v", err)
			return f
		}
		f.Projection = proj
	}
	return f
}

func decodeCircuit(d *envelope.Decoder, f *cnf.Formula) *circuit.Circuit {
	nn := d.Count(10, "circuit nodes")
	c := &circuit.Circuit{Nodes: make([]circuit.Node, 0, nn)}
	var fanins slab[circuit.NodeID]
	inputSeen := 0
	for id := 0; id < nn; id++ {
		t := circuit.GateType(d.U8())
		val := d.U8()
		v := int(int32(d.U32()))
		nf := d.Count(4, "node fanins")
		if d.Err() != nil {
			return c
		}
		if t > circuit.Xnor {
			d.Fail("node %d has unknown gate type %d", id, t)
			return c
		}
		switch t {
		case circuit.Input, circuit.Const:
			if nf != 0 {
				d.Fail("node %d: %v with %d fanins", id, t, nf)
				return c
			}
		case circuit.Buf, circuit.Not:
			if nf != 1 {
				d.Fail("node %d: %v with %d fanins", id, t, nf)
				return c
			}
		default:
			if nf < 2 {
				d.Fail("node %d: %v with %d fanins", id, t, nf)
				return c
			}
		}
		if v < 0 || v > f.NumVars {
			d.Fail("node %d claims CNF variable %d of %d", id, v, f.NumVars)
			return c
		}
		nd := circuit.Node{Type: t, Val: val != 0, Var: v}
		if nf > 0 {
			raw := d.Take(4 * nf)
			if d.Err() != nil {
				return c
			}
			nd.Fanin = fanins.take(nf)
			for i := range nd.Fanin {
				fid := int32(binary.LittleEndian.Uint32(raw[4*i:]))
				if fid < 0 || fid >= int32(id) {
					d.Fail("node %d fanin %d is %d (topological order violated)", id, i, fid)
					return c
				}
				nd.Fanin[i] = circuit.NodeID(fid)
			}
		}
		if t == circuit.Input {
			inputSeen++
		}
		// Extraction names each input after its variable, and
		// specialization keeps that name on the constant a pin turns the
		// input into.
		if v > 0 && (t == circuit.Input || t == circuit.Const) {
			nd.Name = "x" + strconv.Itoa(v)
		}
		c.Nodes = append(c.Nodes, nd)
	}
	nin := d.Count(4, "circuit inputs")
	if d.Err() == nil && nin != inputSeen {
		d.Fail("input list has %d entries for %d input nodes", nin, inputSeen)
	}
	if d.Err() != nil {
		return c
	}
	c.Inputs = make([]circuit.NodeID, nin)
	seen := make([]bool, len(c.Nodes))
	for i := range c.Inputs {
		id := int32(d.U32())
		if d.Err() != nil {
			return c
		}
		if id < 0 || int(id) >= len(c.Nodes) || c.Nodes[id].Type != circuit.Input || seen[id] {
			d.Fail("input %d is node %d (missing, non-input, or repeated)", i, id)
			return c
		}
		seen[id] = true
		c.Inputs[i] = circuit.NodeID(id)
	}
	nout := d.Count(5, "circuit outputs")
	if d.Err() != nil {
		return c
	}
	c.Outputs = make([]circuit.Output, nout)
	for i := range c.Outputs {
		id := int32(d.U32())
		target := d.U8()
		if d.Err() != nil {
			return c
		}
		if id < 0 || int(id) >= len(c.Nodes) {
			d.Fail("output %d references node %d of %d", i, id, len(c.Nodes))
			return c
		}
		c.Outputs[i] = circuit.Output{Node: circuit.NodeID(id), Target: target != 0}
	}
	return c
}

func decodeExtraction(d *envelope.Decoder, f *cnf.Formula, c *circuit.Circuit) *extract.Result {
	ext := &extract.Result{Circuit: c}
	checkVars := func(vs []int, what string) {
		for _, v := range vs {
			if d.Err() == nil && (v < 1 || v > f.NumVars) {
				d.Fail("%s variable %d of %d", what, v, f.NumVars)
			}
		}
	}
	ext.PrimaryInputs = d.Ints("primary inputs")
	checkVars(ext.PrimaryInputs, "primary input")
	ext.Intermediates = d.Ints("intermediates")
	checkVars(ext.Intermediates, "intermediate")
	ext.PrimaryOutputs = d.Ints("primary outputs")
	checkVars(ext.PrimaryOutputs, "primary output")
	if d.Err() != nil {
		return ext
	}
	// Every variable 1..NumVars has a node: with entries ascending and in
	// range, the count alone proves the map complete.
	nmap := d.Count(8, "node map")
	if d.Err() == nil && nmap != f.NumVars {
		d.Fail("node map lists %d of %d variables", nmap, f.NumVars)
	}
	if d.Err() != nil {
		return ext
	}
	ext.NodeOf = make([]circuit.NodeID, nmap)
	prev := 0
	for i := 0; i < nmap; i++ {
		v := int(int32(d.U32()))
		id := int32(d.U32())
		if v <= prev || v > f.NumVars {
			d.Fail("node map entry %d: variable %d (want ascending, <= %d)", i, v, f.NumVars)
			return ext
		}
		if id < 0 || int(id) >= len(c.Nodes) {
			d.Fail("node map entry %d: node %d of %d", i, id, len(c.Nodes))
			return ext
		}
		ext.NodeOf[v-1] = circuit.NodeID(id)
		prev = v
	}
	ext.TransformTime = time.Duration(d.U64())
	ext.Windows = int(d.U32())
	ext.Fallbacks = int(d.U32())
	ext.SignatureHits = int(d.U32())
	return ext
}
