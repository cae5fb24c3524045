package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/bitblast"
	"repro/internal/circuit"
	"repro/internal/extract"
	"repro/internal/tensor"
)

// expandByMap is the expansion oracle: one scalar evaluation of the
// circuit, then a walk over a variable → node map.
func expandByMap(ext *extract.Result, inputs []bool) []bool {
	nodeOf := make(map[int]circuit.NodeID, len(ext.NodeOf))
	for i, id := range ext.NodeOf {
		nodeOf[i+1] = id
	}
	vals := ext.Circuit.Eval(inputs)
	assign := make([]bool, len(nodeOf))
	for v, id := range nodeOf {
		assign[v-1] = vals[id]
	}
	return assign
}

// expandCorpus is the formula set the expansion differential runs on:
// SmallSuite, QualitySuite and one formula of each perfbench offline and
// serve-cold family.
func expandCorpus() []*benchgen.Instance {
	ins := append(benchgen.SmallSuite(), benchgen.QualitySuite()...)
	return append(ins,
		benchgen.Iscas("cold-0", 120, 1200, 4, 6001),
		benchgen.OrChain("or-400-80-4001", 400, 80, 4001),
		benchgen.OrChain("or-100-20-8-UC-10", 98, 10, 10020),
		benchgen.QChain("90-10-10-q", 15, 24, 9020),
		benchgen.Iscas("s15850a_15_7", 600, 10390, 15, 15857),
		benchgen.Prod("Prod-8", 293, 150, 8),
	)
}

// TestExpansionMatchesMapOracle: the dense NodeOf gather expands every
// delivered solution, and random input rows, exactly as the map oracle
// does, on every corpus formula as compiled, as decoded from GDSP and as
// specialized on two primary-input pins. Every delivered expansion is a
// model of the formula that holds the pins.
func TestExpansionMatchesMapOracle(t *testing.T) {
	for _, in := range expandCorpus() {
		t.Run(in.Name, func(t *testing.T) {
			base, err := CompileCNF(in.Formula)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := base.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeProblem(blob)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Specialize(base, pinFromModel(t, base, 2))
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(9))
			for _, p := range []*Problem{base, dec, spec} {
				s, err := p.NewSampler(Config{BatchSize: 256, Seed: 5, Device: tensor.Sequential()})
				if err != nil {
					t.Fatal(err)
				}
				s.SampleUntil(64, 10*time.Second)
				if s.UniqueCount() == 0 {
					t.Fatalf("%s: no solution to expand", p.Key())
				}
				for i := 0; i < s.UniqueCount(); i++ {
					got := s.FullAssignmentAt(i)
					want := expandByMap(p.ext, bitblast.UnpackRow(make([]bool, s.NumInputs()), s.inputRow(i)))
					if !slices.Equal(got, want) {
						t.Fatalf("%s: solution %d expands differently from the map oracle", p.Key(), i)
					}
					if !in.Formula.Sat(got) {
						t.Fatalf("%s: solution %d is not a model", p.Key(), i)
					}
					for _, l := range p.Assumptions() {
						if !l.Sat(got[l.Var()-1]) {
							t.Fatalf("%s: solution %d violates pin %d", p.Key(), i, l)
						}
					}
				}
				row := make([]bool, s.NumInputs())
				for k := 0; k < 16; k++ {
					for i := range row {
						row[i] = r.Intn(2) == 1
					}
					if !slices.Equal(s.FullAssignment(row), expandByMap(p.ext, row)) {
						t.Fatalf("%s: random row %d expands differently from the map oracle", p.Key(), k)
					}
				}
			}
		})
	}
}

// BenchmarkExpand times FullAssignmentAt, the per-solution expansion an
// offline stream's sink receives, at the two largest perfbench table2
// shapes: Prod-32-c20 (1061 inputs) and s15850a_15_7. The pool holds 256
// solutions, expanded round-robin.
func BenchmarkExpand(b *testing.B) {
	for _, in := range []*benchgen.Instance{
		benchgen.Prod("Prod-32-c20", 1061, 20, 32),
		benchgen.Iscas("s15850a_15_7", 600, 10390, 15, 15857),
	} {
		b.Run(in.Name, func(b *testing.B) {
			p, err := CompileCNF(in.Formula)
			if err != nil {
				b.Fatal(err)
			}
			s, err := p.NewSampler(Config{BatchSize: 256, Seed: 1, Device: tensor.Sequential()})
			if err != nil {
				b.Fatal(err)
			}
			s.SampleUntil(256, 30*time.Second)
			n := s.UniqueCount()
			if n == 0 {
				b.Fatal("no solutions to expand")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				expandSink = s.FullAssignmentAt(i % n)
			}
		})
	}
}

// expandSink keeps BenchmarkExpand's result live.
var expandSink []bool
