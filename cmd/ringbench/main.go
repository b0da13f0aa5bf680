// Command ringbench regenerates the paper's evaluation figures on the
// discrete-event simulator and prints latency-vs-throughput tables (or CSV)
// for each. Figures on the real stack come from `go run -C benchmark .`.
//
// Usage:
//
//	ringbench [-figure figure1|...|figure7|all] [-ablation <id>|all] [-csv] [-quick] [-claims]
//
// Examples:
//
//	ringbench -figure figure1          # one figure, full accuracy
//	ringbench -figure all -quick       # all figures, short measurement windows
//	ringbench -figure figure3 -csv     # machine-readable output
package main

import (
	"flag"
	"fmt"
	"os"

	"accelring/internal/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	figureID := flag.String("figure", "all", "figure to regenerate (figure1..figure7, or all)")
	ablationID := flag.String("ablation", "", "ablation to run (accel-window, priority-method, jumbo-frames, arrivals, ring-size, or all)")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	quick := flag.Bool("quick", false, "short measurement windows (faster, noisier)")
	claims := flag.Bool("claims", false, "print each figure's paper claim alongside the data")
	flag.Parse()

	scale := bench.FullScale
	if *quick {
		scale = bench.QuickScale
	}

	if *ablationID != "" {
		return runAblations(*ablationID, *csv)
	}

	var figures []bench.Figure
	if *figureID == "all" {
		figures = bench.Figures()
	} else {
		f, ok := bench.FigureByID(*figureID)
		if !ok {
			fmt.Fprintf(os.Stderr, "ringbench: unknown figure %q (figure1..figure7 or all)\n", *figureID)
			return 2
		}
		figures = []bench.Figure{f}
	}

	for _, f := range figures {
		points, err := bench.RunFigure(f, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ringbench: %v\n", err)
			return 1
		}
		render(f.Title, points, *csv)
		if *claims {
			fmt.Printf("paper: %s\n", f.PaperClaim)
		}
		fmt.Println()
	}
	return 0
}

func runAblations(id string, csv bool) int {
	var ablations []bench.Ablation
	if id == "all" {
		ablations = bench.Ablations()
	} else {
		a, ok := bench.AblationByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "ringbench: unknown ablation %q\n", id)
			return 2
		}
		ablations = []bench.Ablation{a}
	}
	for _, a := range ablations {
		points, err := a.Run(bench.AblationScale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ringbench: %v\n", err)
			return 1
		}
		render(a.Title, points, csv)
		fmt.Printf("question: %s\n\n", a.Question)
	}
	return 0
}

func render(title string, points []bench.Point, csv bool) {
	if csv {
		fmt.Printf("# %s\n", title)
		bench.WriteCSV(os.Stdout, points)
	} else {
		bench.WriteTable(os.Stdout, title, points)
	}
}
