package modellib

import (
	"errors"
	"testing"
	"time"

	"evop/internal/cloud"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func fixedNow() time.Time { return epoch }

func TestPublishStreamlinedVersioning(t *testing.T) {
	l := New(fixedNow)
	v1, err := l.PublishStreamlined("topmodel", "morland", map[string]float64{"m": 28}, time.Minute, "initial calibration")
	if err != nil {
		t.Fatalf("PublishStreamlined: %v", err)
	}
	if v1.Version != 1 || v1.Image.ID != "topmodel-morland-v1" {
		t.Fatalf("v1 = %+v", v1)
	}
	if v1.Image.Kind != cloud.Streamlined {
		t.Fatalf("kind = %v", v1.Image.Kind)
	}
	if len(v1.Image.Services) != 1 || v1.Image.Services[0] != "topmodel" {
		t.Fatalf("services = %v", v1.Image.Services)
	}
	if !v1.PublishedAt.Equal(epoch) {
		t.Fatalf("publishedAt = %v", v1.PublishedAt)
	}

	v2, err := l.PublishStreamlined("topmodel", "morland", map[string]float64{"m": 31}, time.Minute, "recalibrated with 2019 floods")
	if err != nil {
		t.Fatalf("publish v2: %v", err)
	}
	if v2.Version != 2 {
		t.Fatalf("v2.Version = %d", v2.Version)
	}

	lineage := l.streamlined["topmodel@morland"]
	if len(lineage) != 2 || lineage[0].Version != 1 || lineage[1].Version != 2 {
		t.Fatalf("lineage = %+v", lineage)
	}
}

func TestPublishValidation(t *testing.T) {
	l := New(nil)
	if _, err := l.PublishStreamlined("", "morland", nil, 0, ""); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("empty model err = %v", err)
	}
	if _, err := l.PublishStreamlined("topmodel", "", nil, 0, ""); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("empty catchment err = %v", err)
	}
	if _, err := l.PublishStreamlined("topmodel", "morland", func() {}, 0, ""); err == nil {
		t.Fatal("unencodable params accepted")
	}
	if _, err := l.PublishIncubator("", 0, ""); !errors.Is(err, ErrBadEntry) {
		t.Fatalf("empty incubator err = %v", err)
	}
}

func TestIncubators(t *testing.T) {
	l := New(fixedNow)
	a, err := l.PublishIncubator("general", 5*time.Minute, "generic testbed")
	if err != nil {
		t.Fatalf("PublishIncubator: %v", err)
	}
	if a.Image.Kind != cloud.Incubator || a.Image.ExtraBootDelay != 5*time.Minute {
		t.Fatalf("incubator image = %+v", a.Image)
	}
}

func TestListAndForService(t *testing.T) {
	l := New(fixedNow)
	l.PublishStreamlined("topmodel", "morland", nil, 0, "")
	l.PublishStreamlined("topmodel", "morland", nil, 0, "")
	l.PublishStreamlined("topmodel", "tarland", nil, 0, "")
	l.PublishStreamlined("fuse-1211", "morland", nil, 0, "")
	l.PublishIncubator("general", 0, "")

	all := l.List()
	if len(all) != 5 {
		t.Fatalf("List = %d entries, want 5", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Image.ID < all[i-1].Image.ID {
			t.Fatal("List not sorted by image ID")
		}
	}
}

func TestCalibratedParamsRoundTrip(t *testing.T) {
	l := New(fixedNow)
	type params struct {
		M    float64 `json:"m"`
		LnTe float64 `json:"lnTe"`
	}
	in := params{M: 28.5, LnTe: 5.1}
	e, err := l.PublishStreamlined("topmodel", "morland", in, 0, "")
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if string(e.CalibratedParams) != `{"m":28.5,"lnTe":5.1}` {
		t.Fatalf("params JSON = %s", e.CalibratedParams)
	}
}
