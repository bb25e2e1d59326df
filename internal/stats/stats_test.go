package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSpeedup(t *testing.T) {
	if got := Speedup(1.1, 1.0); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := Speedup(1.0, 0); got != 1 {
		t.Fatalf("zero base must yield 1, got %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("empty GeoMean = %v", got)
	}
	// Non-positive entries must not produce NaN/Inf.
	if got := GeoMean([]float64{1, 0}); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("GeoMean with zero = %v", got)
	}
}

func TestGeoMeanBetweenMinAndMax(t *testing.T) {
	if err := quick.Check(func(a, b uint16) bool {
		x := float64(a)/100 + 0.5
		y := float64(b)/100 + 0.5
		g := GeoMean([]float64{x, y})
		lo, hi := math.Min(x, y), math.Max(x, y)
		return g >= lo-1e-9 && g <= hi+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("empty Mean = %v", got)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(1.052); got != "+5.2%" {
		t.Fatalf("Pct(1.052) = %q", got)
	}
	if got := Pct(0.98); got != "-2.0%" {
		t.Fatalf("Pct(0.98) = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("x", "1.500")
	tb.AddRow("longer-name", "42")
	s := tb.String()
	if !strings.Contains(s, "demo") || !strings.Contains(s, "longer-name") {
		t.Fatalf("rendered table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), s)
	}
}
