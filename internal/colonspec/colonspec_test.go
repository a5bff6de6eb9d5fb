package colonspec

import (
	"reflect"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	got := List(" a:b:1 , ,c:d:2,")
	if want := []string{"a:b:1", "", "c:d:2", ""}; !reflect.DeepEqual(got, want) {
		t.Errorf("List = %q, want %q", got, want)
	}
}

func TestSplit(t *testing.T) {
	pos, opts, err := Split("p:k:0.5:tee=tdx:msg=a=b:empty=", "p:k:prob")
	if err != nil {
		t.Fatal(err)
	}
	if pos != [3]string{"p", "k", "0.5"} {
		t.Errorf("pos = %q", pos)
	}
	want := []Option{{"tee", "tdx"}, {"msg", "a=b"}, {"empty", ""}}
	if !reflect.DeepEqual(opts, want) {
		t.Errorf("opts = %+v, want %+v", opts, want)
	}
	if _, _, err := Split("p:k", "p:k:prob[:key=value...]"); err == nil ||
		err.Error() != `spec "p:k": want p:k:prob[:key=value...]` {
		t.Errorf("short spec error = %v", err)
	}
	if _, _, err := Split("p:k:1:bare", "x"); err == nil ||
		err.Error() != `spec "p:k:1:bare": option "bare": want key=value` {
		t.Errorf("bare option error = %v", err)
	}
}

func TestWords(t *testing.T) {
	words, opts := Words("30:tee=tdx:async:msg=a=b:fail:empty=")
	if want := []string{"30", "async", "fail"}; !reflect.DeepEqual(words, want) {
		t.Errorf("words = %q, want %q", words, want)
	}
	if want := []Option{{"tee", "tdx"}, {"msg", "a=b"}, {"empty", ""}}; !reflect.DeepEqual(opts, want) {
		t.Errorf("opts = %+v, want %+v", opts, want)
	}
	if words, opts := Words(""); words != nil || opts != nil {
		t.Errorf("Words(\"\") = %q, %+v; want neither", words, opts)
	}
	if words, _ := Words(":"); !reflect.DeepEqual(words, []string{"", ""}) {
		t.Errorf("Words(\":\") = %q, want two empty words", words)
	}
}

// FuzzSplit: the tokenizer never panics, and whatever it accepts it
// only cut apart — joining the tokens back gives the input, and no key
// holds the separator its value was cut at.
func FuzzSplit(f *testing.F) {
	f.Add("hostagent.exec:error:1.0:host=sev-snp-host")
	f.Add("invoke-availability:availability:success>=99.9%:short=1:long=2")
	f.Add("tee.transition:latency:0.2:tee=tdx:latency=2ms")
	f.Add("a:b")
	f.Add(":::::")
	f.Add("a:b:c:=")
	f.Add(" , ,hostagent.exec:error:1")
	f.Fuzz(func(t *testing.T, s string) {
		for _, item := range List(s) {
			if item != strings.TrimSpace(item) || strings.Contains(item, ",") {
				t.Fatalf("List(%q) left item %q untrimmed or unsplit", s, item)
			}
		}
		words, wopts := Words(s)
		if n := len(words) + len(wopts); s != "" && n != strings.Count(s, ":")+1 {
			t.Fatalf("Words(%q) holds %d tokens", s, n)
		}
		for _, w := range words {
			if strings.ContainsAny(w, "=:") {
				t.Fatalf("Words(%q): word %q holds a separator", s, w)
			}
		}
		pos, opts, err := Split(s, "a:b:c")
		if err != nil {
			return
		}
		parts := pos[:]
		for _, o := range opts {
			if strings.ContainsAny(o.Key, "=:") {
				t.Fatalf("Split(%q): key %q holds a separator", s, o.Key)
			}
			parts = append(parts, o.Key+"="+o.Value)
		}
		if joined := strings.Join(parts, ":"); joined != s {
			t.Fatalf("Split(%q) rejoins as %q", s, joined)
		}
	})
}
