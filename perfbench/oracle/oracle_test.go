package oracle

import (
	"reflect"
	"testing"
)

// The paper's running example, counted by hand:
//
//	index  0 1 2 3 4 5 6 7 8 9
//	T      a b c a b b a b c b
//
// p=2: π_{2,1} = b a b b b, so b holds at 2 of its 4 pairs (0.5).
// p=3: π_{3,0} = a a a b (a: 2 of 3), π_{3,1} = b b b (b: 2 of 2),
// π_{3,2} = c b c (nothing).
// p=4: π_{4,1} = b b b (b: 2 of 2).
// p=5: π_{5,4} = b b (b: 1 of 1).
func TestPeriodicitiesPaperExample(t *testing.T) {
	sym := []byte("abcabbabcb")
	got := Periodicities(sym, 1, 5, 0.6, 1)
	want := []Periodicity{
		{Symbol: 'a', Period: 3, Position: 0, Matches: 2, Pairs: 3, Confidence: 2.0 / 3},
		{Symbol: 'b', Period: 3, Position: 1, Matches: 2, Pairs: 2, Confidence: 1},
		{Symbol: 'b', Period: 4, Position: 1, Matches: 2, Pairs: 2, Confidence: 1},
		{Symbol: 'b', Period: 5, Position: 4, Matches: 1, Pairs: 1, Confidence: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ψ=0.6:\n got %+v\nwant %+v", got, want)
	}

	// Two required pairs drop the single-pair p=5 periodicity; ψ=0.5 admits
	// b at (2,1).
	got = Periodicities(sym, 1, 5, 0.5, 2)
	want = []Periodicity{
		{Symbol: 'b', Period: 2, Position: 1, Matches: 2, Pairs: 4, Confidence: 0.5},
		{Symbol: 'a', Period: 3, Position: 0, Matches: 2, Pairs: 3, Confidence: 2.0 / 3},
		{Symbol: 'b', Period: 3, Position: 1, Matches: 2, Pairs: 2, Confidence: 1},
		{Symbol: 'b', Period: 4, Position: 1, Matches: 2, Pairs: 2, Confidence: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ψ=0.5, 2 pairs:\n got %+v\nwant %+v", got, want)
	}
}

// aaaa: every lag matches everywhere. p=1 has 3 pairs at offset 0; p=2 has
// one pair at each of offsets 0 and 1.
func TestPeriodicitiesConstantSeries(t *testing.T) {
	got := Periodicities([]byte("aaaa"), 1, 3, 1, 1)
	want := []Periodicity{
		{Symbol: 'a', Period: 1, Position: 0, Matches: 3, Pairs: 3, Confidence: 1},
		{Symbol: 'a', Period: 2, Position: 0, Matches: 1, Pairs: 1, Confidence: 1},
		{Symbol: 'a', Period: 2, Position: 1, Matches: 1, Pairs: 1, Confidence: 1},
		{Symbol: 'a', Period: 3, Position: 0, Matches: 1, Pairs: 1, Confidence: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
}

func TestTopByConfidenceTiesInCanonicalOrder(t *testing.T) {
	pers := []Periodicity{
		{Symbol: 'a', Period: 2, Position: 0, Confidence: 0.5},
		{Symbol: 'b', Period: 2, Position: 1, Confidence: 1},
		{Symbol: 'a', Period: 3, Position: 0, Confidence: 0.75},
		{Symbol: 'a', Period: 3, Position: 1, Confidence: 1},
		{Symbol: 'b', Period: 3, Position: 1, Confidence: 0.75},
	}
	got := TopByConfidence(pers, 3)
	// Both 1.0 entries, then the first 0.75 in canonical order.
	want := []Periodicity{pers[1], pers[2], pers[3]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
	if got := TopByConfidence(pers, 9); len(got) != len(pers) {
		t.Fatalf("limit above length kept %d of %d", len(got), len(pers))
	}
}

// In abcabbabcb with p=3 there are ⌊10/3⌋ = 3 occurrences. "ab*" holds at
// m=0 (t0=t3=a, t1=t4=b) and m=1 (t3=t6=a, t4=t7=b) but not at m=2
// (t9=b); "*bc" never holds (t2=c, t5=b).
func TestPatternSupportPaperExample(t *testing.T) {
	sym := []byte("abcabbabcb")
	for _, tc := range []struct {
		pattern string
		count   int
	}{
		{"ab*", 2},
		{"a**", 2},
		{"*b*", 2},
		{"*bc", 0},
		{"**c", 0},
	} {
		count, support, err := PatternSupport(sym, tc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		if count != tc.count || support != float64(tc.count)/3 {
			t.Errorf("%s: count %d support %v, want %d", tc.pattern, count, support, tc.count)
		}
	}
	if _, _, err := PatternSupport(sym, ""); err == nil {
		t.Error("empty pattern: want error")
	}
}

func TestEqualWidth(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		levels int
		want   string
	}{
		{[]float64{0, 1, 2, 3, 4}, 2, "aabbb"},
		{[]float64{0, 1, 2, 3, 4}, 4, "abcdd"},
		{[]float64{10, 0, 5, 7.5, 2.4}, 4, "dacda"},
	} {
		got, err := EqualWidth(tc.values, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("EqualWidth(%v, %d) = %s, want %s", tc.values, tc.levels, got, tc.want)
		}
	}
	if _, err := EqualWidth([]float64{3, 3}, 2); err == nil {
		t.Error("constant values: want error")
	}
}
