package prism_test

import (
	"fmt"

	"nvmllc/internal/prism"
	"nvmllc/internal/trace"
)

// ExampleCharacterize computes the paper's Table VI metrics for a tiny
// trace: two reads of one address and one write of another.
func ExampleCharacterize() {
	tr := &trace.Trace{
		Name: "demo", Threads: 1, InstrCount: 10,
		Accesses: []trace.Access{
			{Addr: 0x1000, Kind: trace.Read},
			{Addr: 0x1000, Kind: trace.Read},
			{Addr: 0x2000, Kind: trace.Write},
		},
	}
	f := prism.Characterize(tr, prism.Config{})
	fmt.Printf("reads=%d writes=%d unique reads=%d H_rg=%.1f\n",
		f.TotalReads, f.TotalWrites, f.UniqueReads, f.GlobalReadEntropy)
	// Output:
	// reads=2 writes=1 unique reads=1 H_rg=0.0
}
