// Command splatt-gen generates sparse tensors: either synthetic structural
// twins of the paper's Table I datasets or uniform random tensors with
// explicit dimensions. Output is .tns text (1-indexed, FROSTT-compatible)
// or the binary container, selected by the output extension.
//
// Examples:
//
//	splatt-gen -dataset yelp -scale 0.015625 -out yelp-64th.tns
//	splatt-gen -dims 1000x800x1200 -nnz 100000 -seed 7 -out random.bin
//	splatt-gen -dims 100x80x60 -nnz 5000 -out - | curl --data-binary @- localhost:8080/v1/tensors
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/sptensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("splatt-gen: ")

	var (
		dataset = flag.String("dataset", "", "Table I twin: yelp|rate-beer|beer-advocate|nell-2|netflix")
		scale   = flag.Float64("scale", 1.0/64, "twin scale factor (1.0 = paper scale)")
		dims    = flag.String("dims", "", "explicit dimensions, e.g. 1000x800x1200")
		nnz     = flag.Int("nnz", 0, "nonzero count for -dims tensors")
		seed    = flag.Int64("seed", 1, "generator seed for -dims tensors")
		out     = flag.String("out", "", "output path (.tns = text, otherwise binary; \"-\" writes stdout)")
		format  = flag.String("format", "", "force output format: tns|bin (default: by extension, tns on stdout)")
	)
	flag.Parse()

	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	var (
		t    *sptensor.Tensor
		name string
	)
	switch {
	case *dataset != "" && *dims != "":
		log.Fatal("use either -dataset or -dims, not both")
	case *dataset != "":
		spec, err := sptensor.LookupDataset(*dataset)
		if err != nil {
			log.Fatal(err)
		}
		t = spec.Generate(*scale)
		name = spec.Name
	case *dims != "":
		dd, err := parseDims(*dims)
		if err != nil {
			log.Fatal(err)
		}
		if *nnz <= 0 {
			log.Fatal("-dims requires -nnz > 0")
		}
		t = sptensor.Random(dd, *nnz, *seed)
		name = *dims
	default:
		flag.Usage()
		os.Exit(2)
	}

	if err := save(*out, *format, t); err != nil {
		log.Fatal(err)
	}
	stats := sptensor.ComputeStats(name, t)
	fmt.Fprintf(os.Stderr, "wrote %s\n%s\n", *out, stats.Row())
}

// save routes the tensor to stdout or a file through the writer API.
func save(out, formatFlag string, t *sptensor.Tensor) error {
	format := sptensor.FormatForPath(out)
	if out == "-" {
		format = sptensor.FormatTNS
	}
	if formatFlag != "" {
		f, err := sptensor.ParseFormat(formatFlag)
		if err != nil {
			return err
		}
		format = f
	}
	if out == "-" {
		return sptensor.SaveTensorWriter(os.Stdout, t, format)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := sptensor.SaveTensorWriter(f, t, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseDims parses "AxBxC" into mode lengths.
func parseDims(s string) ([]int, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) < 2 {
		return nil, fmt.Errorf("dims %q: need at least two modes", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("dims %q: bad mode length %q", s, p)
		}
		dims[i] = v
	}
	return dims, nil
}
