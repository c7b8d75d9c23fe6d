//! Protected-attribute spaces and intersection indexing.
//!
//! The paper's framework `(A, Θ)` takes `A = S₁ × S₂ × … × S_p`, the
//! Cartesian product of discrete protected attributes. [`ProtectedSpace`]
//! represents that product with mixed-radix indexing so the flattened
//! intersections can be enumerated, named, and mapped back to per-attribute
//! values without hashing.

use crate::builder::SubsetPolicy;
use crate::error::{DfError, Result};
use serde::Serialize;

/// One protected attribute, e.g. `gender ∈ {Female, Male}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ProtectedAttribute {
    name: String,
    values: Vec<String>,
}

impl ProtectedAttribute {
    /// Creates an attribute with at least one value and unique value names.
    pub fn new(name: impl Into<String>, values: Vec<String>) -> Result<Self> {
        let name = name.into();
        if values.is_empty() {
            return Err(DfError::NotEnoughCategories {
                what: "attribute values",
                needed: 1,
                present: 0,
            });
        }
        for (i, v) in values.iter().enumerate() {
            if values[..i].contains(v) {
                return Err(DfError::Invalid(format!(
                    "attribute `{name}` has duplicate value `{v}`"
                )));
            }
        }
        Ok(Self { name, values })
    }

    /// Convenience constructor from string slices.
    pub fn from_strs(name: &str, values: &[&str]) -> Result<Self> {
        Self::new(name, values.iter().map(|s| s.to_string()).collect())
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered values.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false: an attribute has ≥ 1 value by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of a value, if present.
    pub fn index_of(&self, value: &str) -> Option<usize> {
        self.values.iter().position(|v| v == value)
    }
}

/// The product space `A = S₁ × … × S_p` of protected attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ProtectedSpace {
    attributes: Vec<ProtectedAttribute>,
}

impl ProtectedSpace {
    /// Creates a space from at least one attribute with unique names.
    pub fn new(attributes: Vec<ProtectedAttribute>) -> Result<Self> {
        if attributes.is_empty() {
            return Err(DfError::NotEnoughCategories {
                what: "protected attributes",
                needed: 1,
                present: 0,
            });
        }
        for (i, a) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(DfError::Invalid(format!(
                    "duplicate protected attribute `{}`",
                    a.name
                )));
            }
        }
        Ok(Self { attributes })
    }

    /// The attributes, in declaration order.
    pub fn attributes(&self) -> &[ProtectedAttribute] {
        &self.attributes
    }

    /// Number of attributes `p`.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute names in order.
    pub fn names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name.as_str()).collect()
    }

    /// Looks up an attribute by name.
    pub fn attribute(&self, name: &str) -> Result<&ProtectedAttribute> {
        self.attributes
            .iter()
            .find(|a| a.name == name)
            .ok_or_else(|| DfError::UnknownAttribute(name.to_string()))
    }

    /// Number of intersections `|A| = Π |Sᵢ|`.
    pub fn intersection_count(&self) -> usize {
        self.attributes
            .iter()
            .map(ProtectedAttribute::len)
            .product()
    }

    /// Flattens a per-attribute value-index vector into an intersection
    /// index (row-major / mixed radix, first attribute most significant).
    pub fn flatten(&self, value_indices: &[usize]) -> Result<usize> {
        if value_indices.len() != self.attributes.len() {
            return Err(DfError::Invalid(format!(
                "expected {} indices, got {}",
                self.attributes.len(),
                value_indices.len()
            )));
        }
        let mut flat = 0usize;
        for (attr, &ix) in self.attributes.iter().zip(value_indices) {
            if ix >= attr.len() {
                return Err(DfError::Invalid(format!(
                    "value index {ix} out of range for attribute `{}`",
                    attr.name
                )));
            }
            flat = flat * attr.len() + ix;
        }
        Ok(flat)
    }

    /// Inverse of [`Self::flatten`].
    pub fn unflatten(&self, mut flat: usize) -> Result<Vec<usize>> {
        if flat >= self.intersection_count() {
            return Err(DfError::Invalid(format!(
                "intersection index {flat} out of range ({} intersections)",
                self.intersection_count()
            )));
        }
        let mut out = vec![0usize; self.attributes.len()];
        for (i, attr) in self.attributes.iter().enumerate().rev() {
            out[i] = flat % attr.len();
            flat /= attr.len();
        }
        Ok(out)
    }

    /// Resolves value labels (one per attribute, in order) to an
    /// intersection index.
    pub fn index_of_labels(&self, labels: &[&str]) -> Result<usize> {
        if labels.len() != self.attributes.len() {
            return Err(DfError::Invalid(format!(
                "expected {} labels, got {}",
                self.attributes.len(),
                labels.len()
            )));
        }
        let mut indices = Vec::with_capacity(labels.len());
        for (attr, &label) in self.attributes.iter().zip(labels) {
            let ix = attr.index_of(label).ok_or_else(|| {
                DfError::Invalid(format!(
                    "unknown value `{label}` for attribute `{}`",
                    attr.name
                ))
            })?;
            indices.push(ix);
        }
        self.flatten(&indices)
    }

    /// Human-readable name of an intersection, e.g.
    /// `"gender=Female, race=Black"`.
    pub fn describe(&self, flat: usize) -> Result<String> {
        let indices = self.unflatten(flat)?;
        Ok(self
            .attributes
            .iter()
            .zip(&indices)
            .map(|(a, &ix)| format!("{}={}", a.name, a.values[ix]))
            .collect::<Vec<_>>()
            .join(", "))
    }

    /// Iterates all intersections as `(flat_index, value_indices)`.
    pub fn iter_intersections(&self) -> impl Iterator<Item = (usize, Vec<usize>)> + '_ {
        (0..self.intersection_count()).map(move |flat| {
            let idx = self
                .unflatten(flat)
                .expect("flat index within intersection_count");
            (flat, idx)
        })
    }

    /// Enumerates every nonempty subset of the attributes, by name, in
    /// ascending subset-size order (singletons first, the full set last).
    ///
    /// This is the subset lattice over which Theorem 3.2 quantifies.
    pub fn subsets(&self) -> Vec<Vec<&str>> {
        let p = self.attributes.len();
        let mut masks: Vec<u32> = (1..(1u32 << p)).collect();
        masks.sort_by_key(|m| (m.count_ones(), *m));
        masks
            .into_iter()
            .map(|mask| {
                (0..p)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| self.attributes[i].name.as_str())
                    .collect()
            })
            .collect()
    }
}

impl SubsetPolicy {
    /// The attribute subsets this policy audits, each listed in `names`
    /// order: by size, then by bitmask over `names`, so the full
    /// intersection is always last. Reports, snapshots and DFLT frames
    /// match subsets by position in this order, so every audit path takes
    /// its lattice from here. Masks are `u32`, so more than 31 attributes
    /// is a typed error.
    pub(crate) fn lattice(self, names: &[&str]) -> Result<Vec<Vec<String>>> {
        let p = names.len();
        if p > 31 {
            return Err(DfError::Invalid(format!(
                "the subset lattice supports at most 31 protected attributes, got {p}"
            )));
        }
        let limit = match self {
            SubsetPolicy::All => p,
            SubsetPolicy::UpTo { size } => size.min(p),
            SubsetPolicy::None => 0,
        };
        let mut masks: Vec<u32> = (1..(1u32 << p))
            .filter(|m| {
                let ones = m.count_ones() as usize;
                ones <= limit || ones == p
            })
            .collect();
        masks.sort_by_key(|m| (m.count_ones(), *m));
        Ok(masks
            .into_iter()
            .map(|mask| {
                (0..p)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| names[i].to_string())
                    .collect()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_gr() -> ProtectedSpace {
        ProtectedSpace::new(vec![
            ProtectedAttribute::from_strs("gender", &["F", "M"]).unwrap(),
            ProtectedAttribute::from_strs("race", &["r1", "r2", "r3"]).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn attribute_validation() {
        assert!(ProtectedAttribute::from_strs("g", &[]).is_err());
        assert!(ProtectedAttribute::from_strs("g", &["a", "a"]).is_err());
    }

    #[test]
    fn space_validation() {
        assert!(ProtectedSpace::new(vec![]).is_err());
        let a = ProtectedAttribute::from_strs("g", &["x"]).unwrap();
        assert!(ProtectedSpace::new(vec![a.clone(), a]).is_err());
    }

    #[test]
    fn intersection_count_is_product() {
        assert_eq!(space_gr().intersection_count(), 6);
    }

    #[test]
    fn flatten_unflatten_roundtrip() {
        let s = space_gr();
        for flat in 0..s.intersection_count() {
            let idx = s.unflatten(flat).unwrap();
            assert_eq!(s.flatten(&idx).unwrap(), flat);
        }
    }

    #[test]
    fn flatten_is_row_major() {
        let s = space_gr();
        assert_eq!(s.flatten(&[0, 0]).unwrap(), 0);
        assert_eq!(s.flatten(&[0, 2]).unwrap(), 2);
        assert_eq!(s.flatten(&[1, 0]).unwrap(), 3);
    }

    #[test]
    fn flatten_bounds_checked() {
        let s = space_gr();
        assert!(s.flatten(&[0]).is_err());
        assert!(s.flatten(&[2, 0]).is_err());
        assert!(s.unflatten(6).is_err());
    }

    #[test]
    fn labels_resolve() {
        let s = space_gr();
        let flat = s.index_of_labels(&["M", "r2"]).unwrap();
        assert_eq!(flat, 4);
        assert_eq!(s.describe(flat).unwrap(), "gender=M, race=r2");
        assert!(s.index_of_labels(&["M", "zzz"]).is_err());
        assert!(s.index_of_labels(&["M"]).is_err());
    }

    #[test]
    fn subsets_enumerate_lattice_in_size_order() {
        let s = ProtectedSpace::new(vec![
            ProtectedAttribute::from_strs("a", &["x"]).unwrap(),
            ProtectedAttribute::from_strs("b", &["x"]).unwrap(),
            ProtectedAttribute::from_strs("c", &["x"]).unwrap(),
        ])
        .unwrap();
        let subs = s.subsets();
        assert_eq!(subs.len(), 7);
        assert_eq!(subs[0], vec!["a"]);
        assert_eq!(subs[1], vec!["b"]);
        assert_eq!(subs[2], vec!["c"]);
        assert_eq!(subs[3], vec!["a", "b"]);
        assert_eq!(subs[6], vec!["a", "b", "c"]);
    }

    #[test]
    fn iter_intersections_covers_all() {
        let s = space_gr();
        let all: Vec<_> = s.iter_intersections().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[5].1, vec![1, 2]);
    }
}
