package benchgen

import "fmt"

// Table2Instances returns the 14 representative instances mirroring the
// paper's Table II: four or-k rows, four q-chain rows, three iscas rows,
// and three prod rows, sized to track the reported variable/clause scales.
// Generation is deterministic.
func Table2Instances() []*Instance {
	return []*Instance{
		OrChain("or-50-10-7-UC-10", 50, 4, 5010),
		OrChain("or-60-20-10-UC-10", 60, 5, 6020),
		OrChain("or-70-5-5-UC-10", 69, 7, 7005),
		OrChain("or-100-20-8-UC-10", 98, 10, 10020),
		QChain("75-10-1-q", 41, 8, 7510),
		QChain("75-10-10-q", 39, 9, 7520),
		QChain("90-10-1-q", 25, 13, 9010),
		QChain("90-10-10-q", 15, 24, 9020),
		Iscas("s15850a_3_2", 600, 10300, 3, 15832),
		Iscas("s15850a_7_4", 600, 10320, 7, 15874),
		Iscas("s15850a_15_7", 600, 10390, 15, 15857),
		Prod("Prod-8", 293, 150, 8),
		Prod("Prod-20", 677, 160, 20),
		Prod("Prod-32", 1061, 170, 32),
	}
}

// Fig4Instances returns the four-instance subset the paper uses in Fig. 3
// and Fig. 4 (one representative per family).
func Fig4Instances() []*Instance {
	return []*Instance{
		OrChain("or-100-20-8-UC-10", 98, 10, 10020),
		QChain("90-10-10-q", 15, 24, 9020),
		Iscas("s15850a_15_7", 600, 10390, 15, 15857),
		Prod("Prod-32", 1061, 170, 32),
	}
}

// Suite60 returns the 60-instance benchmark suite used for the paper's
// Fig. 2 scatter: 20 or-k, 16 q-chain, 12 iscas and 12 prod instances of
// graded sizes. Deterministic.
func Suite60() []*Instance {
	var out []*Instance
	for i := 0; i < 20; i++ {
		inputs := 40 + 5*i // 40 … 135
		groups := 3 + i%8
		out = append(out, OrChain(
			fmt.Sprintf("or-%d-%d-UC", inputs, groups), inputs, groups, int64(5000+i)))
	}
	for i := 0; i < 16; i++ {
		segs := 6 + i%7
		chain := 20 + 4*i // 20 … 80
		out = append(out, QChain(
			fmt.Sprintf("%d-%d-q", chain, segs), segs, chain, int64(7000+i)))
	}
	for i := 0; i < 12; i++ {
		inputs := 150 + 50*i // 150 … 700
		gates := inputs * 12
		nOut := 2 + i%9
		out = append(out, Iscas(
			fmt.Sprintf("s%d_%d", gates, nOut), inputs, gates, nOut, int64(15000+i)))
	}
	for i := 0; i < 12; i++ {
		inputs := 100 + 60*i // 100 … 760
		copies := 12 + 3*i
		out = append(out, Prod(
			fmt.Sprintf("Prod-x%d", i+2), inputs, copies, int64(33000+i)))
	}
	return out
}

// SmallSuite returns a reduced, fast-running suite (one small instance per
// family) used by tests and quick demos.
func SmallSuite() []*Instance {
	return []*Instance{
		OrChain("or-12-3-small", 12, 3, 1),
		QChain("20-3-q-small", 3, 6, 2),
		Iscas("iscas-small", 16, 60, 2, 3),
		Prod("prod-small", 16, 3, 4),
	}
}

// QualitySuite returns tiny, exactly-countable instances for the quality
// oracle (`paperbench -exp quality` and the statistical test tier): each
// is small enough for a BDD of its full CNF, so coverage and uniformity
// are measured against exact model counts. The or/prod rows declare their
// golden circuit's primary inputs as the sampling set — the natural
// independent support of a Tseitin encoding and the standard projected-
// sampling workload; the q and iscas rows sample full-assignment
// identity. The iscas row has variables the extracted function does not
// depend on, so its 1.0 coverage floor holds only if the sampler draws
// those free variables as well as the constrained ones.
func QualitySuite() []*Instance {
	or := OrChain("or-6-2-tiny", 6, 2, 21)
	or.Formula.Projection = append([]int(nil), or.Enc.InputVar...)
	q := QChain("8-2-q-tiny", 2, 4, 22)
	pr := Prod("prod-5-2-tiny", 5, 2, 23)
	pr.Formula.Projection = append([]int(nil), pr.Enc.InputVar...)
	return []*Instance{or, q, pr, Iscas("iscas-8-30-tiny", 8, 30, 2, 3)}
}
