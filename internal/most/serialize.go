package most

import (
	"encoding/json"
	"fmt"

	"github.com/mostdb/most/internal/motion"
	"github.com/mostdb/most/internal/temporal"
)

// This file provides a JSON snapshot of a database's current state: the
// clock, the classes, and every object with its static values and dynamic
// sub-attribute triples (A.value, A.updatetime, A.function — the function
// serialized in motion.ParseFunc syntax).  A snapshot captures the current
// state, not the update log: a database restored from a snapshot can answer
// instantaneous and continuous queries identically, while persistent
// queries anchor to post-restore history.
//
// JSON is the human-readable export only (the S18 snapshot and
// SnapshotLoad over the network).  The durable path — checkpoints, WAL
// records and recovery — and object transfer on the wire use the binary
// encoding in codec.go.

type snapshotDTO struct {
	Now     temporal.Tick `json:"now"`
	Classes []classDTO    `json:"classes"`
	Objects []objectDTO   `json:"objects"`
}

type classDTO struct {
	Name    string    `json:"name"`
	Spatial bool      `json:"spatial"`
	Attrs   []attrDTO `json:"attrs,omitempty"`
}

type attrDTO struct {
	Name    string `json:"name"`
	Dynamic bool   `json:"dynamic"`
}

type objectDTO struct {
	ID       string              `json:"id"`
	Class    string              `json:"class"`
	Statics  map[string]valueDTO `json:"statics,omitempty"`
	Dynamics map[string]dynDTO   `json:"dynamics,omitempty"`
}

type valueDTO struct {
	Kind string   `json:"kind"`
	F    *float64 `json:"f,omitempty"`
	S    *string  `json:"s,omitempty"`
	B    *bool    `json:"b,omitempty"`
}

type dynDTO struct {
	Value      float64       `json:"value"`
	UpdateTime temporal.Tick `json:"updatetime"`
	Function   string        `json:"function"`
}

// SnapshotJSON serializes the database's current state: one published
// version, so the serialized state is a cut between commits.
func (db *Database) SnapshotJSON() ([]byte, error) {
	s := db.Snapshot()
	dto := snapshotDTO{Now: s.now}
	for _, c := range s.classes {
		dto.Classes = append(dto.Classes, encodeClass(c.class))
	}
	for _, o := range s.Objects("") {
		dto.Objects = append(dto.Objects, encodeObject(o))
	}
	return json.MarshalIndent(dto, "", "  ")
}

// encodeClass renders a class as its DTO (implicit POSITION attributes
// elided).
func encodeClass(c *Class) classDTO {
	cd := classDTO{Name: c.name, Spatial: c.spatial}
	for _, a := range c.attrs {
		if c.spatial && (a.Name == XPosition || a.Name == YPosition || a.Name == ZPosition) {
			continue // implicit
		}
		cd.Attrs = append(cd.Attrs, attrDTO{Name: a.Name, Dynamic: a.Kind == Dynamic})
	}
	return cd
}

// decodeClass rebuilds a class from its DTO.
func decodeClass(cd classDTO) (*Class, error) {
	attrs := make([]AttrDef, 0, len(cd.Attrs))
	for _, a := range cd.Attrs {
		kind := Static
		if a.Dynamic {
			kind = Dynamic
		}
		attrs = append(attrs, AttrDef{Name: a.Name, Kind: kind})
	}
	return NewClass(cd.Name, cd.Spatial, attrs...)
}

// encodeObject renders one object revision as its DTO.
func encodeObject(o *Object) objectDTO {
	od := objectDTO{ID: string(o.id), Class: o.class.name}
	if len(o.statics) > 0 {
		od.Statics = map[string]valueDTO{}
		for k, v := range o.statics {
			od.Statics[k] = encodeValue(v)
		}
	}
	for _, a := range o.class.attrs {
		d, ok := o.dynamic(a.Name)
		if a.Kind != Dynamic || !ok {
			continue
		}
		if od.Dynamics == nil {
			od.Dynamics = map[string]dynDTO{}
		}
		od.Dynamics[a.Name] = dynDTO{
			Value:      d.Value,
			UpdateTime: d.UpdateTime,
			Function:   d.Function.String(),
		}
	}
	return od
}

// decodeObject rebuilds an object revision from its DTO, resolving the
// class by name in db.
func decodeObject(db *Database, od objectDTO) (*Object, error) {
	cls, ok := db.Class(od.Class)
	if !ok {
		return nil, fmt.Errorf("most: object %s references unknown class %s", od.ID, od.Class)
	}
	o, err := NewObject(ObjectID(od.ID), cls)
	if err != nil {
		return nil, err
	}
	for k, vd := range od.Statics {
		v, err := decodeValue(vd)
		if err != nil {
			return nil, fmt.Errorf("most: object %s attribute %s: %w", od.ID, k, err)
		}
		if o, err = o.WithStatic(k, v); err != nil {
			return nil, err
		}
	}
	for k, dd := range od.Dynamics {
		f, err := motion.ParseFunc(dd.Function)
		if err != nil {
			return nil, fmt.Errorf("most: object %s attribute %s: %w", od.ID, k, err)
		}
		attr := motion.DynamicAttr{Value: dd.Value, UpdateTime: dd.UpdateTime, Function: f}
		if o, err = o.WithDynamic(k, attr); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func encodeValue(v Value) valueDTO {
	switch v.Kind {
	case KindFloat:
		f := v.F
		return valueDTO{Kind: "float", F: &f}
	case KindString:
		s := v.S
		return valueDTO{Kind: "string", S: &s}
	case KindBool:
		b := v.B
		return valueDTO{Kind: "bool", B: &b}
	default:
		return valueDTO{Kind: "null"}
	}
}

func decodeValue(d valueDTO) (Value, error) {
	switch d.Kind {
	case "float":
		if d.F == nil {
			return Value{}, fmt.Errorf("most: float value missing payload")
		}
		return Float(*d.F), nil
	case "string":
		if d.S == nil {
			return Value{}, fmt.Errorf("most: string value missing payload")
		}
		return Str(*d.S), nil
	case "bool":
		if d.B == nil {
			return Value{}, fmt.Errorf("most: bool value missing payload")
		}
		return Bool(*d.B), nil
	case "null":
		return Null(), nil
	default:
		return Value{}, fmt.Errorf("most: unknown value kind %q", d.Kind)
	}
}

// LoadSnapshotJSON rebuilds a database from a snapshot, inserting its
// objects at the snapshot clock.
func LoadSnapshotJSON(data []byte) (*Database, error) {
	var dto snapshotDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("most: bad snapshot: %w", err)
	}
	db := NewDatabase()
	db.Advance(dto.Now)
	for _, cd := range dto.Classes {
		c, err := decodeClass(cd)
		if err != nil {
			return nil, err
		}
		if err := db.DefineClass(c); err != nil {
			return nil, err
		}
	}
	for _, od := range dto.Objects {
		o, err := decodeObject(db, od)
		if err != nil {
			return nil, err
		}
		if err := db.Insert(o); err != nil {
			return nil, err
		}
	}
	return db, nil
}
