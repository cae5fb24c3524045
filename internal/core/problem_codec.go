package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/bitblast"
	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/envelope"
	"repro/internal/extract"
)

// This file implements the durable-compile-tier codec: a compiled Problem
// — the expensive, immutable artifact behind every sampling session — is
// serialized to a versioned "GDSP" binary blob and rebuilt without
// re-running extract.Transform (the dominant compile cost on large
// instances), the engine fusion passes, or the bitblast constant
// resolution. Decode is a linear parse + validate over the sections, so a
// fleet replica can load a peer-compiled artifact from the shared
// content-addressed store orders of magnitude faster than recompiling it
// (the `paperbench -exp cache` row measures exactly this).
//
// The format follows GDSS/GDSC over the shared internal/envelope codec:
// little-endian, length-prefixed sections, every length bounds-checked
// against the remaining input before allocation, and a SHA-256 trailer
// over all preceding bytes checked before any field parse — a torn or
// corrupted file is a clean error, never a panic (FuzzDecodeProblem
// guards this). Beyond the trailer, decode cross-checks the content
// address: the embedded formula must hash (cnf.Formula.ContentHash) to
// the embedded key, so a blob filed under the wrong key in the store can
// never serve the wrong problem.
//
// Sections that are cheap to recompute are NOT serialized: the cache tile
// derives from the engine dimensions exactly as Compile derives it, input
// node names rebuild from their CNF variables, and extract.Result.Bindings
// (logic.Expr trees used only by offline tooling) are dropped — a decoded
// Problem carries a nil Bindings slice. Everything the sampling runtime
// reads (engine tape, verifier plan, NodeOf, projection provenance,
// OutputSources) round-trips exactly, which is what makes store-loaded
// Problems stream bit-identical solutions to freshly compiled ones (the
// differential test in problem_codec_test.go and e2e shard tier).

// ProblemVersion is the current problem codec version. Version 1 is the
// unspecialized format; version 2 adds an assumption section directly
// after the key (see specialize.go) and is only written when the problem
// carries assumptions, so every unspecialized artifact stays byte-for-byte
// a version-1 blob that older readers accept. Decode accepts both; any
// other version is rejected — stored artifacts outlive the process that
// wrote them, so silent cross-version reinterpretation is never
// acceptable.
const ProblemVersion = 2

// problemVersionBase is the assumption-free encoding version.
const problemVersionBase = 1

// problemMagic opens every encoded problem.
const problemMagic = "GDSP"

// ErrBadProblem is wrapped by every problem decode failure, so the store
// layer can map "this blob is garbage" to a quarantine-and-miss without
// string matching.
var ErrBadProblem = errors.New("core: invalid problem encoding")

// maxProblemDim is a sanity bound on decoded section counts — far past
// any real compiled instance, but small enough that a forged length field
// can never drive a multi-gigabyte allocation (Decoder.Count bounds
// allocations by the remaining input anyway; this bounds derived
// products).
const maxProblemDim = 1 << 26

// MarshalBinary encodes the compiled problem in the versioned GDSP binary
// format, with a SHA-256 trailer over the whole encoding. The result is
// self-contained: DecodeProblem rebuilds an equivalent Problem from it
// alone.
func (p *Problem) MarshalBinary() ([]byte, error) {
	if len(p.key) > 0xFFFF {
		return nil, fmt.Errorf("%w: oversized key", ErrBadProblem)
	}
	f, ext, eng := p.formula, p.ext, p.eng
	c := ext.Circuit
	est := 256 + len(p.key) + 8*len(f.Clauses) + 4*len(f.Projection) +
		14*len(c.Nodes) + 4*len(c.Inputs) + 5*len(c.Outputs) +
		8*len(ext.NodeOf) + 25*len(eng.code) + 16*len(eng.outputs)
	for _, cl := range f.Clauses {
		est += 4 * len(cl)
	}
	version := uint16(problemVersionBase)
	if len(p.assume) > 0 {
		version = ProblemVersion
	}
	e := envelope.NewEncoder(problemMagic, version, est)
	e.Str(p.key)
	if len(p.assume) > 0 {
		encLits(e, p.assume)
	}

	// Formula.
	e.U32(uint32(f.NumVars))
	e.U32(uint32(len(f.Clauses)))
	for _, cl := range f.Clauses {
		encLits(e, cl)
	}
	e.Ints(f.Projection)

	// Circuit. Names are not stored: input nodes rebuild theirs from Var.
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

	// Extraction (minus Bindings; see the file comment). NodeOf encodes
	// var-ascending so equal extractions produce identical bytes.
	e.Ints(ext.PrimaryInputs)
	e.Ints(ext.Intermediates)
	e.Ints(ext.PrimaryOutputs)
	e.U32(uint32(len(ext.NodeOf)))
	for _, v := range sortedVars(ext.NodeOf) {
		e.U32(uint32(int32(v)))
		e.U32(uint32(ext.NodeOf[v]))
	}
	e.U32(uint32(len(ext.OutputSources)))
	for _, srcs := range ext.OutputSources {
		e.Ints(srcs)
	}
	e.U64(uint64(ext.TransformTime.Nanoseconds()))
	e.U32(uint32(ext.Windows))
	e.U32(uint32(ext.Fallbacks))
	e.U32(uint32(ext.SignatureHits))

	// Engine.
	e.U32(uint32(eng.numInputs))
	e.U32(uint32(eng.numSlots))
	e.U32(uint32(eng.numGregs))
	e.U32(uint32(len(eng.code)))
	for _, in := range eng.code {
		e.U8(uint8(in.op))
		for _, v := range [6]int32{in.dst, in.a, in.b, in.gd, in.ga, in.gb} {
			e.U32(uint32(v))
		}
	}
	e.U32(uint32(len(eng.outputs)))
	for _, o := range eng.outputs {
		e.U32(uint32(o.slot))
		e.U32(uint32(o.greg))
		e.F32(o.target)
		e.U32(uint32(o.src))
	}
	e.F64(eng.constLoss)
	packBools(e.Grow((len(eng.liveIn)+7)/8), eng.liveIn)
	e.I32s(eng.liveInList)

	// Verifier plan.
	plan, unsat := p.verify.Plan()
	e.U8(b2u(unsat))
	e.U32(uint32(len(plan)))
	for _, cl := range plan {
		e.U32(uint32(len(cl)))
		for _, l := range cl {
			e.U32(uint32(l.Node))
			e.U8(b2u(l.Neg))
		}
	}
	return e.Seal(envelope.SHA256), nil
}

// DecodeProblem parses and validates a GDSP encoding back into a live
// Problem. It never panics: truncated, corrupted, or version-mismatched
// input returns an error wrapping ErrBadProblem. Validation is structural
// (every index bounds-checked, circuit topology and arity re-checked, the
// embedded formula re-hashed against the embedded key), so a decoded
// Problem is safe to run sessions over; semantic agreement between the
// engine tape and the circuit is the writer's responsibility — the store
// only ever reads blobs this process family wrote (see DESIGN.md, trust
// model).
func DecodeProblem(data []byte) (*Problem, error) {
	d, err := envelope.Open(data, problemMagic, envelope.SHA256, problemVersionBase, ProblemVersion, ErrBadProblem)
	if err != nil {
		return nil, err
	}
	key := d.Str()
	var assume []cnf.Lit
	if d.Version == ProblemVersion {
		if assume = decInts[cnf.Lit](d, "assumptions", nil); d.Err() == nil && len(assume) == 0 {
			d.Fail("version %d blob with no assumptions (canonical form is version %d)", ProblemVersion, problemVersionBase)
		}
	}

	f := decodeFormula(d)
	circ := decodeCircuit(d, f)
	ext := decodeExtraction(d, f, circ)
	eng := decodeEngine(d, circ)
	verify := decodeVerifyPlan(d, circ)
	if err := d.Close(); err != nil {
		return nil, err
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
	// assumption set is empty, so one check covers both versions.
	if h := cnf.AssumeKey(f.ContentHash(), assume); h != key {
		return nil, fmt.Errorf("%w: embedded content hashes to %s, key says %s", ErrBadProblem, abbrev(h), abbrev(key))
	}

	p := &Problem{formula: f, ext: ext, eng: eng, verify: verify, key: key, assume: assume}
	// The tile is derived state: recompute it exactly as Compile does.
	p.tile = tileFor(eng)
	return p, nil
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
// so decoding tens of thousands of short slices (clause literals, fanins,
// verifier clauses) costs a few block allocations instead of one per
// slice. The windows never overlap, so appending to one cannot write into
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

// sortedVars returns NodeOf's keys ascending (canonical encode order).
func sortedVars(m map[int]circuit.NodeID) []int {
	vars := make([]int, 0, len(m))
	for v := range m {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	return vars
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
			if v > 0 {
				nd.Name = "x" + strconv.Itoa(v)
			}
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
	nmap := d.Count(8, "node map")
	if d.Err() != nil {
		return ext
	}
	ext.NodeOf = make(map[int]circuit.NodeID, nmap)
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
		ext.NodeOf[v] = circuit.NodeID(id)
		prev = v
	}
	nsrc := d.Count(4, "output provenance")
	if d.Err() == nil && nsrc != len(c.Outputs) {
		d.Fail("provenance for %d outputs, circuit has %d", nsrc, len(c.Outputs))
	}
	if d.Err() != nil {
		return ext
	}
	ext.OutputSources = make([][]int, nsrc)
	var srcSlab slab[int]
	for i := range ext.OutputSources {
		srcs := decInts(d, "provenance clauses", &srcSlab)
		for _, ci := range srcs {
			if d.Err() == nil && (ci < 0 || ci >= len(f.Clauses)) {
				d.Fail("provenance clause %d of %d", ci, len(f.Clauses))
			}
		}
		if d.Err() != nil {
			return ext
		}
		ext.OutputSources[i] = srcs
	}
	ext.TransformTime = time.Duration(d.U64())
	ext.Windows = int(d.U32())
	ext.Fallbacks = int(d.U32())
	ext.SignatureHits = int(d.U32())
	return ext
}

func decodeEngine(d *envelope.Decoder, c *circuit.Circuit) *engine {
	eng := &engine{
		numInputs: int(d.U32()),
		numSlots:  int(d.U32()),
		numGregs:  int(d.U32()),
	}
	if d.Err() != nil {
		return eng
	}
	if eng.numInputs != len(c.Inputs) || eng.numInputs < 1 {
		d.Fail("engine has %d inputs, circuit has %d", eng.numInputs, len(c.Inputs))
		return eng
	}
	if eng.numSlots < eng.numInputs || eng.numSlots > maxProblemDim ||
		eng.numGregs < eng.numInputs || eng.numGregs > maxProblemDim {
		d.Fail("implausible engine shape slots=%d gregs=%d inputs=%d", eng.numSlots, eng.numGregs, eng.numInputs)
		return eng
	}
	ncode := d.Count(25, "engine code")
	if d.Err() != nil {
		return eng
	}
	eng.code = make([]einstr, ncode)
	for i := range eng.code {
		in := einstr{
			op:  eop(d.U8()),
			dst: int32(d.U32()),
			a:   int32(d.U32()),
			b:   int32(d.U32()),
			gd:  int32(d.U32()),
			ga:  int32(d.U32()),
			gb:  int32(d.U32()),
		}
		if in.op > eNot {
			d.Fail("instruction %d has unknown op %d", i, in.op)
			return eng
		}
		ns, ng, ni := int32(eng.numSlots), int32(eng.numGregs), int32(eng.numInputs)
		if in.dst < ni || in.dst >= ns || in.a < 0 || in.a >= ns || in.b < 0 || in.b >= ns {
			d.Fail("instruction %d slots out of range (dst=%d a=%d b=%d over %d)", i, in.dst, in.a, in.b, ns)
			return eng
		}
		if in.gd < 0 || in.gd >= ng || in.ga < 0 || in.ga >= ng || in.gb < 0 || in.gb >= ng {
			d.Fail("instruction %d registers out of range (gd=%d ga=%d gb=%d over %d)", i, in.gd, in.ga, in.gb, ng)
			return eng
		}
		eng.code[i] = in
	}
	nouts := d.Count(16, "engine outputs")
	if d.Err() != nil {
		return eng
	}
	eng.outputs = make([]eout, nouts)
	for i := range eng.outputs {
		o := eout{
			slot:   int32(d.U32()),
			greg:   int32(d.U32()),
			target: d.F32(),
			src:    int32(d.U32()),
		}
		if d.Err() != nil {
			return eng
		}
		if o.slot < 0 || o.slot >= int32(eng.numSlots) || o.greg < 0 || o.greg >= int32(eng.numGregs) {
			d.Fail("output %d slot/register out of range (slot=%d greg=%d)", i, o.slot, o.greg)
			return eng
		}
		if o.src < 0 || o.src >= int32(len(c.Outputs)) {
			d.Fail("output %d provenance index %d of %d", i, o.src, len(c.Outputs))
			return eng
		}
		if o.target != 0 && o.target != 1 {
			d.Fail("output %d target %v (want 0 or 1)", i, o.target)
			return eng
		}
		eng.outputs[i] = o
	}
	eng.constLoss = d.F64()
	if d.Err() == nil && (math.IsNaN(eng.constLoss) || math.IsInf(eng.constLoss, 0) || eng.constLoss < 0) {
		d.Fail("constant loss %v (want finite, >= 0)", eng.constLoss)
		return eng
	}
	raw := d.Take((eng.numInputs + 7) / 8)
	if d.Err() != nil {
		return eng
	}
	eng.liveIn = make([]bool, eng.numInputs)
	unpackBools(eng.liveIn, raw)
	eng.liveInList = d.I32s("live input list")
	prev := int32(-1)
	for i, v := range eng.liveInList {
		if d.Err() == nil && (v <= prev || v >= int32(eng.numInputs) || !eng.liveIn[v]) {
			d.Fail("live input list entry %d is %d (want ascending live inputs)", i, v)
			return eng
		}
		prev = v
	}
	return eng
}

func decodeVerifyPlan(d *envelope.Decoder, c *circuit.Circuit) *bitblast.Program {
	unsat := d.U8() != 0
	ncl := d.Count(4, "verifier clauses")
	if d.Err() != nil {
		return nil
	}
	plan := make([][]bitblast.PlanLit, ncl)
	var lits slab[bitblast.PlanLit]
	for i := range plan {
		raw := d.Take(5 * d.Count(5, "verifier literals"))
		if d.Err() != nil {
			return nil
		}
		cl := lits.take(len(raw) / 5)
		for j := range cl {
			r := raw[5*j:]
			cl[j] = bitblast.PlanLit{Node: int32(binary.LittleEndian.Uint32(r)), Neg: r[4] != 0}
		}
		plan[i] = cl
	}
	prog, err := bitblast.FromPlan(c, plan, unsat)
	if err != nil {
		d.Fail("%v", err)
		return nil
	}
	return prog
}
