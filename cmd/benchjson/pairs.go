package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// run is the last JSON line of one `tsubench` run.
type run struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// pairFiles reads two files of tsubench result lines — line i of each
// is pair i, the base commit's run and the change's — and writes, per
// end-to-end metric, each side's quartiles, the pairs the change won
// (ties count for neither), and whether that is a gain by the
// repository's rule: at least nine tenths of the pairs won and the
// medians further apart than the base's own interquartile distance.
// The direction of "better" comes from the benchmark declaration.
func pairFiles(w io.Writer, basePath, changePath, declPath string) error {
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	if len(base) != len(change) || len(base) == 0 {
		return fmt.Errorf("%s has %d runs, %s has %d: want the same number, at least one", basePath, len(base), changePath, len(change))
	}
	var decl struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile(declPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("%s: %w", declPath, err)
	}

	fmt.Fprintf(w, "%d pairs: base %s, change %s\n", len(base), basePath, changePath)
	fmt.Fprintf(w, "%-16s %-5s %30s   %30s   %7s  %5s  %s\n", "metric", "unit", "base q1 / median / q3", "change q1 / median / q3", "median", "won", "")
	for _, m := range decl.EndToEnd {
		var b, c []float64
		won, unit := 0, ""
		for i := range base {
			bv, cv := base[i].Metrics[m.Name], change[i].Metrics[m.Name]
			b, c, unit = append(b, bv.Value), append(c, cv.Value), bv.Unit
			if (m.Better == "lower" && cv.Value < bv.Value) || (m.Better == "higher" && cv.Value > bv.Value) {
				won++
			}
		}
		bq, cq := quartiles(b), quartiles(c)
		rel := math.NaN()
		if bq[1] != 0 {
			rel = (cq[1]/bq[1] - 1) * 100
		}
		verdict := ""
		if 10*won >= 9*len(base) && math.Abs(cq[1]-bq[1]) > bq[2]-bq[0] {
			verdict = "gain"
		}
		fmt.Fprintf(w, "%-16s %-5s %30s   %30s   %+6.1f%%  %2d/%-2d  %s\n", m.Name, unit,
			fmt.Sprintf("%.4g / %.4g / %.4g", bq[0], bq[1], bq[2]),
			fmt.Sprintf("%.4g / %.4g / %.4g", cq[0], cq[1], cq[2]), rel, won, len(base), verdict)
	}
	fmt.Fprintf(w, "failed ops: base %s, change %s\n", failures(base), failures(change))
	return nil
}

// readRuns parses one tsubench result per non-empty line.
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, len(runs)+1, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// quartiles returns q1, the median and q3 of vs, interpolating linearly
// between order statistics.
func quartiles(vs []float64) [3]float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	var q [3]float64
	for k := range q {
		pos := float64(k+1) / 4 * float64(len(s)-1)
		lo := int(pos)
		hi := min(lo+1, len(s)-1)
		q[k] = s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	return q
}

// failures sums failed and attempted ops over a side's runs.
func failures(runs []run) string {
	failed, attempted := 0, 0
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return fmt.Sprintf("%d of %d", failed, attempted)
}
