package most

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"github.com/mostdb/most/internal/geom"
	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/temporal"
)

// ObjectID identifies an object across all classes.
type ObjectID string

// Object is one immutable revision of a database object.  Updates go
// through the Database, which installs a new revision; holders of an old
// *Object continue to see the state as of when they fetched it.
type Object struct {
	id      ObjectID
	class   *Class
	statics map[string]Value
	// dynamics holds the dynamic attributes other than a spatial object's
	// POSITION, which live in pos: the position is read on every spatial
	// predicate, so it costs no map lookup.  posSet marks which of the
	// three coordinates were ever set (bit i for X, Y, Z), which the codec
	// needs to encode the object exactly as a map of attributes would.
	dynamics map[string]motion.DynamicAttr
	pos      motion.Position
	posSet   uint8
}

// NewObject builds an object of the given class.  Unset static attributes
// are NULL; unset dynamic attributes are the constant 0.
func NewObject(id ObjectID, class *Class) (*Object, error) {
	if id == "" {
		return nil, fmt.Errorf("most: object id must not be empty")
	}
	if class == nil {
		return nil, fmt.Errorf("most: object %s: class must not be nil", id)
	}
	return &Object{id: id, class: class}, nil
}

// ID returns the object identifier.
func (o *Object) ID() ObjectID { return o.id }

// Class returns the object's class.
func (o *Object) Class() *Class { return o.class }

// checkAttr validates that name exists on the class with the wanted kind.
func (o *Object) checkAttr(name string, kind AttrKind) error {
	def, ok := o.class.Attr(name)
	if !ok {
		return fmt.Errorf("most: class %s has no attribute %s", o.class.Name(), name)
	}
	if def.Kind != kind {
		return fmt.Errorf("most: attribute %s.%s is %s, not %s", o.class.Name(), name, def.Kind, kind)
	}
	return nil
}

// WithStatic returns a revision with the static attribute set.
func (o *Object) WithStatic(name string, v Value) (*Object, error) {
	if err := o.checkAttr(name, Static); err != nil {
		return nil, err
	}
	if err := checkStatic(o.class, name, v); err != nil {
		return nil, err
	}
	// Revisions never change their maps: the new one copies the map it
	// changes and shares the other.
	c := *o
	c.statics = maps.Clone(o.statics)
	if c.statics == nil {
		c.statics = map[string]Value{}
	}
	c.statics[name] = v
	return &c, nil
}

// WithDynamic returns a revision with the dynamic attribute replaced (see
// checkDynamic for the values it accepts).
func (o *Object) WithDynamic(name string, a motion.DynamicAttr) (*Object, error) {
	if err := o.checkAttr(name, Dynamic); err != nil {
		return nil, err
	}
	if err := checkDynamic(o.class, name, a); err != nil {
		return nil, err
	}
	c := *o
	c.setDynamic(name, a)
	return &c, nil
}

// posCoord returns the position coordinate that stores name, with its
// presence bit, or nil when name is kept in the dynamics map.
func (o *Object) posCoord(name string) (*motion.DynamicAttr, uint8) {
	if !o.class.spatial {
		return nil, 0
	}
	switch name {
	case XPosition:
		return &o.pos.X, 1
	case YPosition:
		return &o.pos.Y, 2
	case ZPosition:
		return &o.pos.Z, 4
	}
	return nil, 0
}

// dynamic returns the dynamic attribute name and whether it was ever set.
func (o *Object) dynamic(name string) (motion.DynamicAttr, bool) {
	if p, bit := o.posCoord(name); p != nil {
		return *p, o.posSet&bit != 0
	}
	d, ok := o.dynamics[name]
	return d, ok
}

// setDynamic stores a dynamic attribute into a revision under
// construction: a POSITION coordinate in place, any other attribute in a
// copy of the map, which revisions share and never change.
func (o *Object) setDynamic(name string, a motion.DynamicAttr) {
	if p, bit := o.posCoord(name); p != nil {
		*p = a
		o.posSet |= bit
		return
	}
	m := make(map[string]motion.DynamicAttr, len(o.dynamics)+1)
	maps.Copy(m, o.dynamics)
	m[name] = a
	o.dynamics = m
}

// checkStatic rejects a static value no snapshot can hold: a NaN or
// infinite float, which JSON cannot express.
func checkStatic(class *Class, name string, v Value) error {
	if v.Kind == KindFloat && (math.IsNaN(v.F) || math.IsInf(v.F, 0)) {
		return fmt.Errorf("most: %s.%s must be a finite number, not %v", class.Name(), name, v.F)
	}
	return nil
}

// checkDynamic enforces the rules for a stored dynamic attribute.  A.value
// must be finite, like a static float.  POSITION attributes must have
// piecewise-linear functions: the kinetic polygon and distance solvers
// work on straight paths (non-positional dynamic attributes may be
// quadratic).  Every path that stores a dynamic attribute, recovery
// included, goes through here.
func checkDynamic(class *Class, name string, a motion.DynamicAttr) error {
	if math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
		return fmt.Errorf("most: %s.%s.value must be a finite number, not %v", class.Name(), name, a.Value)
	}
	if isPositionAttr(name) && !a.Function.IsLinear() {
		return fmt.Errorf("most: %s.%s must be piecewise linear; approximate acceleration with linear pieces", class.Name(), name)
	}
	return nil
}

// isPositionAttr reports whether name is one of the implicit POSITION
// attributes of spatial classes.
func isPositionAttr(name string) bool {
	return name == XPosition || name == YPosition || name == ZPosition
}

// WithPosition returns a revision with all three POSITION attributes set.
func (o *Object) WithPosition(p motion.Position) (*Object, error) {
	if !o.class.Spatial() {
		return nil, fmt.Errorf("most: class %s is not spatial", o.class.Name())
	}
	names := [3]string{XPosition, YPosition, ZPosition}
	for i, a := range [3]motion.DynamicAttr{p.X, p.Y, p.Z} {
		if err := checkDynamic(o.class, names[i], a); err != nil {
			return nil, err
		}
	}
	c := *o
	c.pos, c.posSet = p, 7
	return &c, nil
}

// Static returns the static attribute's value (NULL if never set).
func (o *Object) Static(name string) (Value, error) {
	if err := o.checkAttr(name, Static); err != nil {
		return Value{}, err
	}
	return o.statics[name], nil
}

// Dynamic returns the dynamic attribute's sub-attribute triple.
func (o *Object) Dynamic(name string) (motion.DynamicAttr, error) {
	if err := o.checkAttr(name, Dynamic); err != nil {
		return motion.DynamicAttr{}, err
	}
	d, _ := o.dynamic(name)
	return d, nil
}

// ValueAt returns the attribute's value at tick t: for static attributes
// the stored value; for dynamic ones A.value + A.function(t - A.updatetime)
// (§2.1 — "the answer returned by the DBMS consists of the value of the
// attribute at the time the query is entered").
func (o *Object) ValueAt(name string, t temporal.Tick) (Value, error) {
	def, ok := o.class.Attr(name)
	if !ok {
		return Value{}, fmt.Errorf("most: class %s has no attribute %s", o.class.Name(), name)
	}
	if def.Kind == Static {
		return o.statics[name], nil
	}
	d, _ := o.dynamic(name)
	return Float(d.At(t)), nil
}

// Position returns the object's position attributes as a motion.Position.
func (o *Object) Position() (motion.Position, error) {
	if !o.class.Spatial() {
		return motion.Position{}, fmt.Errorf("most: class %s is not spatial", o.class.Name())
	}
	return o.pos, nil
}

// PositionAt returns the object's location at tick t.
func (o *Object) PositionAt(t temporal.Tick) (geom.Point, error) {
	p, err := o.Position()
	if err != nil {
		return geom.Point{}, err
	}
	return p.At(t), nil
}

// AttrNames returns the object's attribute names in sorted order.
func (o *Object) AttrNames() []string {
	names := make([]string, 0, len(o.class.attrs))
	for _, a := range o.class.attrs {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}
