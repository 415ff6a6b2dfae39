package httpcond

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// oldTag is the hash/fnv and fmt formula Tag replaced: the byte-identity
// oracle for the inline hash.
func oldTag(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%q", fmt.Sprintf("%016x", h.Sum64()))
}

func TestTagMatchesOldFormula(t *testing.T) {
	for _, parts := range [][]string{
		nil,
		{},
		{""},
		{"", ""},
		{"a"},
		{"ab", "c"},
		{"a", "bc"},
		{"series", "morland-level-1", "42", "1561939200000000000", "1562025600000000000", "0", "", "900000000000"},
		{"Morland, Eden catchment", "Café", "水位", "\x00\xff"},
		{"\x00", "\x00\x00"},
		{string(make([]byte, 4096))},
	} {
		if got, want := Tag(parts...), oldTag(parts...); got != want {
			t.Fatalf("Tag(%q) = %s, want %s", parts, got, want)
		}
	}
}

// tagSink keeps the tag escaping, as a response header does.
var tagSink string

func TestTagAllocs(t *testing.T) {
	parts := []string{"series", "morland-level-1", "42", "0", "mean"}
	if n := testing.AllocsPerRun(100, func() { tagSink = Tag(parts...) }); n != 1 {
		t.Fatalf("Tag allocates %v times per call, want 1 (the result string)", n)
	}
	seq, from := uint64(42), int64(-1561939200000000000)
	if n := testing.AllocsPerRun(100, func() {
		tagSink = NewHash().Part("series").Uint(seq).Int(from).Tag()
	}); n != 1 {
		t.Fatalf("Hash allocates %v times per tag, want 1 (the result string)", n)
	}
}

// TestHashMatchesTag: a Hash fed parts equals Tag of the same parts, its
// integers as the strconv text they stand for.
func TestHashMatchesTag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 9, 10, -10, 1561939200000000000, math.MaxInt64, math.MinInt64} {
		if got, want := NewHash().Part("a").Int(v).Part("").Tag(), Tag("a", strconv.FormatInt(v, 10), ""); got != want {
			t.Fatalf("Int(%d) tag %s, want %s", v, got, want)
		}
		u := uint64(v)
		if got, want := NewHash().Uint(u).Tag(), Tag(strconv.FormatUint(u, 10)); got != want {
			t.Fatalf("Uint(%d) tag %s, want %s", u, got, want)
		}
	}
	if NewHash().Tag() != Tag() {
		t.Fatal("a Hash with no parts differs from Tag()")
	}
}

func TestTagDeterministicAndDelimited(t *testing.T) {
	if Tag("a", "b") != Tag("a", "b") {
		t.Fatal("identical parts produced different tags")
	}
	if Tag("ab", "c") == Tag("a", "bc") {
		t.Fatal("part boundaries not delimited")
	}
	tag := Tag("x")
	if len(tag) != 18 || tag[0] != '"' || tag[len(tag)-1] != '"' {
		t.Fatalf("tag %s is not a quoted 16-hex-digit ETag", tag)
	}
}

func TestMatch(t *testing.T) {
	etag := Tag("series", "lvl", "42")
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{etag, true},
		{"W/" + etag, true},
		{"*", true},
		{`"deadbeefdeadbeef"`, false},
		{`"deadbeefdeadbeef", ` + etag, true},
	} {
		r := httptest.NewRequest("GET", "/", nil)
		if tc.header != "" {
			r.Header.Set("If-None-Match", tc.header)
		}
		if got := Match(r, etag); got != tc.want {
			t.Fatalf("Match(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

func TestApply(t *testing.T) {
	w := httptest.NewRecorder()
	at := time.Date(2019, 7, 1, 12, 0, 0, 0, time.UTC)
	Apply(w, `"abc"`, at)
	if w.Header().Get("ETag") != `"abc"` {
		t.Fatalf("ETag = %s", w.Header().Get("ETag"))
	}
	if w.Header().Get("Last-Modified") != "Mon, 01 Jul 2019 12:00:00 GMT" {
		t.Fatalf("Last-Modified = %s", w.Header().Get("Last-Modified"))
	}
	w = httptest.NewRecorder()
	Apply(w, `"abc"`, time.Time{})
	if w.Header().Get("Last-Modified") != "" {
		t.Fatal("zero Last-Modified should be omitted")
	}
}
