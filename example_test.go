package panda_test

import (
	"fmt"
	"log"
	"os"

	"github.com/pglp/panda"
)

// ExampleNewSystem shows the minimal release pipeline: a system, a user,
// one PGLP release. Everything is seeded, so the output is deterministic.
func ExampleNewSystem() {
	sys, err := panda.NewSystem(panda.Options{Rows: 8, Cols: 8, CellSize: 1, Epsilon: 1})
	if err != nil {
		log.Fatal(err)
	}
	alice, err := sys.NewUser(1, panda.GEM, 7)
	if err != nil {
		log.Fatal(err)
	}
	rel, err := alice.Report(0, 27)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("released cell:", rel.Cell)
	fmt.Println("stored records:", len(sys.Records(1)))
	// Output:
	// released cell: 35
	// stored records: 1
}

// ExampleOptions_dataDir shows the durable store across a restart:
// with DataDir set, every release goes through the striped write-ahead
// log, and the records outlive the System that wrote them.
func ExampleOptions_dataDir() {
	dir, err := os.MkdirTemp("", "panda-data-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := panda.Options{Rows: 8, Cols: 8, CellSize: 1, Epsilon: 1, DataDir: dir}

	sys, err := panda.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}
	alice, err := sys.NewUser(1, panda.GEM, 7)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := alice.Report(0, 27); err != nil {
		log.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		log.Fatal(err)
	}

	// A new System on the same directory recovers the records.
	back, err := panda.NewSystem(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("records after restart:", len(back.Records(1)))
	if err := back.Close(); err != nil {
		log.Fatal(err)
	}
	// Output:
	// records after restart: 1
}

// ExampleContactTracingPolicy shows the Gc construction: infected places
// become disclosable while everything else stays protected.
func ExampleContactTracingPolicy() {
	o := panda.Options{Rows: 4, Cols: 4, CellSize: 1, Epsilon: 1}
	base, err := panda.BaselinePolicy(o)
	if err != nil {
		log.Fatal(err)
	}
	gc := panda.ContactTracingPolicy(base, []int{5, 6})
	fmt.Println("disclosable cells:", gc.IsolatedCells())
	// Output:
	// disclosable cells: [5 6]
}

// ExampleVerifyMechanism audits a mechanism against a policy — the
// executable form of the paper's Definition 2.4.
func ExampleVerifyMechanism() {
	o := panda.Options{Rows: 6, Cols: 6, CellSize: 1, Epsilon: 1}
	pg, err := panda.BaselinePolicy(o)
	if err != nil {
		log.Fatal(err)
	}
	ok, _, err := panda.VerifyMechanism(o, pg, 1.0, panda.GEM, 10, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compliant:", ok)
	// Output:
	// compliant: true
}
