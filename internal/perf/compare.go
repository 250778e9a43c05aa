package perf

import (
	"fmt"
	"io"
	"strings"
)

// Verdicts of Compare for one workload × end-to-end metric.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"  // the change's median is worse by more than the bound
	VerdictUnresolved = "unresolved" // a side's inter-quartile spread exceeds the bound
)

// Summary counts Compare's verdicts.
type Summary struct {
	OK, Regressed, Unresolved int
	// ExactDiffer counts exact-count metrics whose values are not all equal
	// across both files.
	ExactDiffer int
	// SettingsDiffer lists what the two files were not measured alike in
	// (window length, processors, Go release, GODEBUG); the verdicts then
	// compare two set-ups, not two commits.
	SettingsDiffer []string
}

// settingsDiffer names the settings two results files do not share.
func settingsDiffer(a, b *File) []string {
	var out []string
	for _, s := range []struct {
		name string
		a, b any
	}{
		{"seconds", a.Seconds, b.Seconds},
		{"nproc", a.Host.NProc, b.Host.NProc},
		{"gomaxprocs", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS},
		{"cpu_model", a.Host.CPU, b.Host.CPU},
		{"go_version", a.Host.Go, b.Host.Go},
		{"godebug", a.Host.GODEBUG, b.Host.GODEBUG},
	} {
		if s.a != s.b {
			out = append(out, fmt.Sprintf("%s %v / %v", s.name, s.a, s.b))
		}
	}
	return out
}

func valuesOf(f *File, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failShares(f *File, workload string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r.FailShare())
		}
	}
	return out
}

// Compare prints, for every workload × end-to-end metric, each side's median
// and quartiles over its runs and a verdict; then the per-layer metrics of
// the traced runs, which are shown and never gated, with the exact-count
// metrics flagged when they differ at all. a is the parent, b the change.
func Compare(w io.Writer, a, b *File) Summary {
	var sum Summary
	fmt.Fprintf(w, "parent: %s on %s (%d runs)   change: %s on %s (%d runs)\n",
		a.Host.Commit, a.Host.CPU, len(a.Runs), b.Host.Commit, b.Host.CPU, len(b.Runs))
	if sum.SettingsDiffer = settingsDiffer(a, b); len(sum.SettingsDiffer) > 0 {
		fmt.Fprintf(w, "NOT MEASURED ALIKE (parent / change): %s\n", strings.Join(sum.SettingsDiffer, "; "))
	}
	for _, wl := range Workloads {
		header := false
		for _, d := range EndToEnd {
			va, vb := valuesOf(a, wl, d.Name, false), valuesOf(b, wl, d.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if !header {
				fmt.Fprintf(w, "\n%s\n  %-20s %34s %34s %8s  %s\n", wl, "metric",
					"parent median [q1, q3]", "change median [q1, q3]", "change", "verdict")
				header = true
			}
			qa, qb := Quartiles(va), Quartiles(vb)
			worse := ratio(qb[1]-qa[1], qa[1])
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := VerdictOK
			switch {
			case ratio(qa[2]-qa[0], qa[1]) > d.Bound || ratio(qb[2]-qb[0], qb[1]) > d.Bound:
				verdict = VerdictUnresolved
				sum.Unresolved++
			case worse > d.Bound:
				verdict = VerdictRegressed
				sum.Regressed++
			default:
				sum.OK++
			}
			fmt.Fprintf(w, "  %-20s %12.4f [%9.4f,%9.4f] %12.4f [%9.4f,%9.4f] %+7.1f%%  %s (bound %.0f%%, %s is better)\n",
				d.Name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
				100*ratio(qb[1]-qa[1], qa[1]), verdict, 100*d.Bound, d.Better)
		}
		if fa, fb := failShares(a, wl), failShares(b, wl); len(fa) > 0 && len(fb) > 0 {
			ma, mb := Median(fa), Median(fb)
			verdict := VerdictOK
			if mb-ma > FailShareBound {
				verdict = VerdictRegressed
				sum.Regressed++
			} else {
				sum.OK++
			}
			fmt.Fprintf(w, "  %-20s %12.4f %35.4f %30s (bound +%g absolute)\n", "fail_share", ma, mb, verdict, FailShareBound)
		}
	}

	exact := map[string]bool{}
	for _, name := range ExactCounts {
		exact[name] = true
	}
	for _, wl := range Workloads {
		header := false
		for _, d := range PerLayer {
			va, vb := valuesOf(a, wl, d.Name, true), valuesOf(b, wl, d.Name, true)
			if len(va) == 0 || len(vb) == 0 || (Median(va) == 0 && Median(vb) == 0) {
				continue
			}
			if !header {
				fmt.Fprintf(w, "\n%s per-layer (shown, not gated)\n", wl)
				header = true
			}
			ma, mb := Median(va), Median(vb)
			note := ""
			if exact[d.Name] {
				note = "  exact count: repeats"
				for _, v := range append(va, vb...) {
					if v != va[0] {
						note = "  exact count: DIFFERS"
						sum.ExactDiffer++
						break
					}
				}
			}
			fmt.Fprintf(w, "  %-40s %14.4f %14.4f %-5s %+7.1f%%%s\n", d.Name, ma, mb, d.Unit, 100*ratio(mb-ma, ma), note)
		}
	}
	fmt.Fprintf(w, "\n%d ok, %d regressed, %d unresolved, %d exact counts differ\n",
		sum.OK, sum.Regressed, sum.Unresolved, sum.ExactDiffer)
	return sum
}
