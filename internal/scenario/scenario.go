// Package scenario implements the four land use and management change
// scenarios of the LEFT modelling widget (paper Section V-B, Fig. 6).
// The scenarios were "developed with stakeholders ... to illustrate how
// changes to land use and land management practices are likely to impact
// flood risk at the catchment outlet"; the widget's preset buttons map to
// these, and its parameter sliders default to each scenario's settings.
//
// Each scenario is expressed as a transform over TOPMODEL (and FUSE)
// parameters, encoding the hydrological reasoning:
//
//   - baseline: current land use, calibrated parameters unchanged;
//   - afforestation: tree planting increases interception and soil
//     storage and slows the subsurface response — lower flood peaks;
//   - compaction: intensified grazing compacts soils, cutting storage
//     and making the catchment flashier — higher flood peaks;
//   - storage: runoff attenuation features (ponds, bunds) delay and
//     flatten the routed response — similar volume, lower later peak.
package scenario

import (
	"errors"
	"fmt"

	"evop/internal/hydro/fuse"
	"evop/internal/hydro/quality"
	"evop/internal/hydro/topmodel"
)

// ErrUnknown indicates an unknown scenario ID.
var ErrUnknown = errors.New("scenario: unknown scenario")

// Scenario is one land-use/management preset.
type Scenario struct {
	// ID is the preset identifier used by the widget ("afforestation").
	ID string `json:"id"`
	// Name is the button label.
	Name string `json:"name"`
	// Description is the widget's help text for non-expert users.
	Description string `json:"description"`
	// applyTM transforms calibrated TOPMODEL parameters.
	applyTM func(topmodel.Params) topmodel.Params
	// applyFUSE transforms calibrated FUSE parameters.
	applyFUSE func(fuse.Params) fuse.Params
	// applyQ transforms water-quality export coefficients.
	applyQ func(quality.Params) quality.Params
}

// ApplyTOPMODEL returns the scenario-adjusted TOPMODEL parameters.
func (s Scenario) ApplyTOPMODEL(p topmodel.Params) topmodel.Params { return s.applyTM(p) }

// ApplyFUSE returns the scenario-adjusted FUSE parameters.
func (s Scenario) ApplyFUSE(p fuse.Params) fuse.Params { return s.applyFUSE(p) }

// ApplyQuality returns the scenario-adjusted water-quality coefficients
// (the "impact on catchment water quality" storyboard from Section VI).
func (s Scenario) ApplyQuality(p quality.Params) quality.Params { return s.applyQ(p) }

// IDs of the four presets.
const (
	Baseline      = "baseline"
	Afforestation = "afforestation"
	Compaction    = "compaction"
	Storage       = "storage"
)

// All returns the four scenarios in widget order.
func All() []Scenario {
	return []Scenario{
		{
			ID:          Baseline,
			Name:        "Current land use",
			Description: "The catchment as it is today, using the calibrated model parameters.",
			applyTM:     func(p topmodel.Params) topmodel.Params { return p },
			applyFUSE:   func(p fuse.Params) fuse.Params { return p },
			applyQ:      func(p quality.Params) quality.Params { return p },
		},
		{
			ID:   Afforestation,
			Name: "Woodland planting",
			Description: "Broadleaf woodland planted on the steeper pasture. Trees intercept " +
				"more rainfall and roots open up the soil, so more water soaks in and the " +
				"river rises more slowly after a storm.",
			applyTM: func(p topmodel.Params) topmodel.Params {
				p.SRMax *= 1.6 // deeper, more absorbent root zone
				p.M *= 1.35    // slower transmissivity decline: damped response
				p.TD *= 1.3    // slower unsaturated drainage
				return p
			},
			applyFUSE: func(p fuse.Params) fuse.Params {
				p.UZMax *= 1.6
				p.B *= 0.7
				p.KFast *= 0.7
				return p
			},
			applyQ: func(p quality.Params) quality.Params {
				// Woodland ground cover halves erodibility; root uptake
				// trims nutrient concentrations.
				p.SedA *= 0.5
				p.PStormMgL *= 0.6
				p.NBaseMgL *= 0.8
				return p
			},
		},
		{
			ID:   Compaction,
			Name: "Intensified grazing",
			Description: "Heavier stocking compacts the topsoil. Rain cannot soak in as " +
				"easily, so more runs straight off the fields and the river responds faster " +
				"and higher.",
			applyTM: func(p topmodel.Params) topmodel.Params {
				p.SRMax *= 0.55 // thin compacted root zone
				p.M *= 0.6      // flashy response
				p.TD *= 0.7
				return p
			},
			applyFUSE: func(p fuse.Params) fuse.Params {
				p.UZMax *= 0.55
				p.B *= 1.6
				p.KFast *= 1.4
				if p.KFast > 1 {
					p.KFast = 1
				}
				return p
			},
			applyQ: func(p quality.Params) quality.Params {
				// Bare, compacted soil and direct stock access mobilise
				// far more sediment and phosphorus in events.
				p.SedA *= 1.8
				p.PStormMgL *= 1.5
				p.NBaseMgL *= 1.1
				return p
			},
		},
		{
			ID:   Storage,
			Name: "Attenuation features",
			Description: "Runoff attenuation features (ponds, leaky dams, bunds) hold water " +
				"back during a storm and release it slowly, trimming the flood peak and " +
				"delaying it.",
			applyTM: func(p topmodel.Params) topmodel.Params {
				// Attenuation acts on routing: longer, flatter unit
				// hydrograph.
				p.RoutePeakSteps *= 2
				p.RouteBaseSteps *= 3
				return p
			},
			applyFUSE: func(p fuse.Params) fuse.Params {
				p.RouteShape *= 1.5
				p.RouteScaleSteps *= 2.5
				return p
			},
			applyQ: func(p quality.Params) quality.Params {
				// Ponds and bunds settle sediment and particulate P.
				p.SedA *= 0.7
				p.PStormMgL *= 0.85
				return p
			},
		},
	}
}

// presets is the table Get scans: All builds a fresh slice per call,
// and every model-run request looks its scenario up.
var presets = All()

// Get returns one scenario by ID.
func Get(id string) (Scenario, error) {
	for _, s := range presets {
		if s.ID == id {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("%q: %w", id, ErrUnknown)
}
