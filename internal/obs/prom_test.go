package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestWritePrometheusHistograms asserts Observe samples render as native
// Prometheus histogram metrics: cumulative _bucket series ending in
// le="+Inf", plus _sum and _count, with the _ns name convention mapped to
// _seconds.
func TestWritePrometheusHistograms(t *testing.T) {
	c := NewCollector()
	c.Observe("hunt.chunk_ns", 1000)
	c.Observe("hunt.chunk_ns", 2000)
	c.Observe("hunt.chunk_ns", 1<<20)
	var buf bytes.Buffer
	if err := c.Report().WritePrometheus(&buf, "coldbootd_pipeline"); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	const metric = "coldbootd_pipeline_hunt_chunk_seconds"
	for _, want := range []string{
		"# TYPE " + metric + " histogram",
		metric + `_bucket{le="+Inf"} 3`,
		metric + "_count 3",
		metric + "_sum ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Bucket counts must be cumulative and end at the total.
	var prev int64 = -1
	var buckets int
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, metric+"_bucket{") {
			continue
		}
		buckets++
		n, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative: %q after %d", line, prev)
		}
		prev = n
	}
	if buckets < 2 || prev != 3 {
		t.Fatalf("got %d buckets ending at %d, want >=2 ending at 3", buckets, prev)
	}
	validatePromText(t, text)
}

// validatePromText checks the text-0.0.4 exposition contract: HELP/TYPE
// comments pair with their metric family, label values parse as quoted
// strings, and no series (name+labels) repeats.
func validatePromText(t *testing.T, text string) {
	t.Helper()
	seen := map[string]bool{}
	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Error("blank line in exposition")
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 {
				t.Errorf("malformed comment %q", line)
				continue
			}
			if fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unknown comment form %q", line)
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Errorf("sample without value: %q", line)
			continue
		}
		series, value := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
		if seen[series] {
			t.Errorf("duplicate series %q", series)
		}
		seen[series] = true
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
			if !strings.HasSuffix(series, "}") {
				t.Errorf("unterminated label set in %q", line)
				continue
			}
			for _, pair := range splitLabels(series[i+1 : len(series)-1]) {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 {
					t.Errorf("label without = in %q", line)
					continue
				}
				if _, err := strconv.Unquote(pair[eq+1:]); err != nil {
					t.Errorf("label value does not parse as quoted string in %q: %v", line, err)
				}
			}
		}
		// Every sample must belong to a TYPE-declared family (histogram
		// series hang off the family name via _bucket/_sum/_count).
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); typed[base] == "histogram" {
				family = base
			}
		}
		if typed[family] == "" {
			t.Errorf("sample %q has no TYPE declaration", line)
		}
	}
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestWritePrometheusFullReportIsValid(t *testing.T) {
	c := NewCollector()
	c.StartSpan(`mine "quoted\"`).End()
	c.Count("hunt.pairs", 7)
	c.Progress("campaign", 3, 8)
	c.Observe("jobs.run_ns", 5_000_000)
	sp := c.StartSpan("attack")
	sp.Child("hunt").End()
	sp.End()
	var buf bytes.Buffer
	if err := c.Report().WritePrometheus(&buf, "coldbootd_pipeline"); err != nil {
		t.Fatal(err)
	}
	validatePromText(t, buf.String())
}
