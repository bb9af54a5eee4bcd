package exp

import (
	"io"

	"laperm/internal/gpu"
	"laperm/internal/spec"
)

// Point is one distinct simulated point of a study: its RunSpec, the
// content hash the executor memoized it under, and its Result.
type Point struct {
	Spec spec.RunSpec
	Hash string
	Res  *gpu.Result
}

// StudyPoints runs experiment id under o and returns every distinct point
// it simulated, in no particular order.
func StudyPoints(id string, o Options) ([]Point, error) {
	e, _ := ByID(id)
	o.memo = make(map[string]outcome)
	if err := e.Run(o, io.Discard); err != nil {
		return nil, err
	}
	var pts []Point
	for h, out := range o.memo {
		pts = append(pts, Point{Spec: out.spec, Hash: h, Res: out.res})
	}
	return pts, nil
}
