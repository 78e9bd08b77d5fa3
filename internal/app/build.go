package app

import "fmt"

// Build constructs an application by name — the single registry behind
// pcrun/pctrace's -app flag and the diagnosis service's session
// requests. Only poisson interprets the version; the others reject a
// non-empty one rather than silently dropping it.
func Build(name, version string, opt Options) (*App, error) {
	switch name {
	case "poisson":
		return Poisson(version, opt)
	case "ocean", "tester", "seismic", "mw", "pipeline":
		if version != "" {
			return nil, fmt.Errorf("app: %s has no versions (got %q)", name, version)
		}
		switch name {
		case "ocean":
			return Ocean(opt)
		case "tester":
			return Tester(opt)
		case "mw":
			return MasterWorker(opt)
		case "pipeline":
			return Pipeline(opt)
		default:
			return Seismic(opt)
		}
	default:
		return nil, fmt.Errorf("unknown application %q (want poisson, ocean, tester, seismic, mw or pipeline)", name)
	}
}
