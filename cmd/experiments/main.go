// Command experiments regenerates the paper's evaluation: Table 2 and
// Figures 1, 7, 8 and 9, against the synthetic ISPD'08 suite.
//
// Usage:
//
//	experiments -exp table2        # full 15-benchmark TILA vs SDP table
//	experiments -exp fig1          # pin-delay histogram, adaptec1
//	experiments -exp fig7          # ILP vs SDP on the small suite
//	experiments -exp fig8          # partition budget sweep
//	experiments -exp fig9          # critical ratio sweep
//	experiments -exp all           # everything, in paper order
//	experiments -exp table2 -quick # 3-benchmark subset for a fast pass
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/exp"
	"repro/internal/ispd08"
)

func main() {
	which := flag.String("exp", "all", "experiment: table2|fig1|fig7|fig8|fig9|ablations|all")
	quick := flag.Bool("quick", false, "table2 only: run a 3-benchmark subset")
	csvDir := flag.String("csv", "", "also write CSV artifacts into this directory")
	scale := flag.Float64("scale", 1, "table2 only: scale grid dimensions and net counts (≥1)")
	flag.Parse()

	writeCSV := func(name string, fn func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, name)
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}

	run := func(name string, fn func() error) {
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	table2 := func() error {
		suite := ispd08.Suite
		if *scale > 1 {
			suite = ispd08.ScaledSuite(*scale)
		}
		if *quick {
			suite = suite[:3]
		}
		rows, err := exp.Table2(suite, exp.Config{}, os.Stdout)
		if err != nil {
			return err
		}
		writeCSV("table2.csv", func(w io.Writer) error { return exp.WriteTable2CSV(w, rows) })
		return nil
	}
	fig1 := func() error {
		bins, err := exp.Fig1(os.Stdout)
		if err != nil {
			return err
		}
		writeCSV("fig1.csv", func(w io.Writer) error { return exp.WriteHistogramCSV(w, bins) })
		return nil
	}
	fig7 := func() error { _, err := exp.Fig7(os.Stdout); return err }
	fig8 := func() error { _, err := exp.Fig8(os.Stdout); return err }
	fig9 := func() error { _, err := exp.Fig9(os.Stdout); return err }
	ablations := func() error {
		p, err := ispd08.ByName("adaptec1")
		if err != nil {
			return err
		}
		_, err = exp.Ablations(p, os.Stdout)
		return err
	}

	switch *which {
	case "ablations":
		run("Ablations", ablations)
	case "table2":
		run("Table 2", table2)
	case "fig1":
		run("Fig. 1", fig1)
	case "fig7":
		run("Fig. 7", fig7)
	case "fig8":
		run("Fig. 8", fig8)
	case "fig9":
		run("Fig. 9", fig9)
	case "all":
		run("Fig. 1", fig1)
		run("Fig. 7", fig7)
		run("Fig. 8", fig8)
		run("Fig. 9", fig9)
		run("Table 2", table2)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
}
