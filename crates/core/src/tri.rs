//! Upper-triangular interval matrices.
//!
//! The set of intervals `I(T)` is stored as an upper-triangular matrix whose
//! cell `[i, j]` (with `0 ≤ i ≤ j < |T|`) corresponds to the interval
//! `T_(i,j)` (§III.E "Data Structure"). Storage is row-major over rows `i`,
//! so the temporal-cut inner loop `pIC[i, k]` for growing `k` is unit-stride.
//! The loop's other operand, `pIC[k+1, j]`, runs down column `j`; the DP
//! keeps it in a `TriColumns` mirror, where columns are contiguous.

/// Dense upper-triangular matrix over intervals of `0..n`.
#[derive(Debug, Clone, PartialEq)]
pub struct TriMatrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> TriMatrix<T> {
    /// Create an `n × n` upper-triangular matrix filled with `T::default()`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "interval matrix needs at least one slice");
        Self {
            n,
            data: vec![T::default(); n * (n + 1) / 2],
        }
    }

    /// Number of slices `|T|` (matrix side).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored cells `n(n+1)/2`.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false (`n ≥ 1` guarantees at least one cell).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // n >= 1 always gives at least one cell
    }

    /// Linear offset of cell `[i, j]`.
    #[inline]
    fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(
            i <= j && j < self.n,
            "bad interval [{i}, {j}] for n={}",
            self.n
        );
        // Row i starts after rows 0..i, which hold (n) + (n-1) + … + (n-i+1)
        // = i·(2n − i + 1)/2 cells.
        i * (2 * self.n - i + 1) / 2 + (j - i)
    }

    /// Value of cell `[i, j]`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[self.offset(i, j)]
    }

    /// Overwrite cell `[i, j]`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let o = self.offset(i, j);
        self.data[o] = v;
    }

    /// Contiguous row segment `[i, i..=jmax]` — cells `[i,i], [i,i+1], …`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        let start = self.offset(i, i);
        &self.data[start..start + (self.n - i)]
    }

    /// Mutable row segment.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        let start = self.offset(i, i);
        let len = self.n - i;
        &mut self.data[start..start + len]
    }

    /// Iterate all `(i, j, value)` cells.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.n).flat_map(move |i| (i..self.n).map(move |j| (i, j, self.get(i, j))))
    }
}

/// Column-major upper-triangular matrix over intervals of `0..n`: column
/// `j` holds the cells `[0, j], [1, j], …, [j, j]` contiguously.
#[derive(Debug)]
pub(crate) struct TriColumns<T> {
    data: Vec<T>,
}

impl<T: Copy + Default> TriColumns<T> {
    /// Create an `n × n` matrix filled with `T::default()`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "interval matrix needs at least one slice");
        Self {
            data: vec![T::default(); n * (n + 1) / 2],
        }
    }

    /// Contiguous column segment `[0..=j, j]`, indexed by row.
    #[inline]
    pub fn column(&self, j: usize) -> &[T] {
        let start = j * (j + 1) / 2;
        &self.data[start..start + j + 1]
    }

    /// Overwrite cell `[i, j]`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i <= j, "bad interval [{i}, {j}]");
        self.data[j * (j + 1) / 2 + i] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_bijective() {
        let n = 7;
        let mut m = TriMatrix::<u32>::new(n);
        let mut counter = 0;
        for i in 0..n {
            for j in i..n {
                m.set(i, j, counter);
                counter += 1;
            }
        }
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in i..n {
                assert!(seen.insert(m.get(i, j)), "duplicate at [{i},{j}]");
            }
        }
        assert_eq!(seen.len(), n * (n + 1) / 2);
        assert_eq!(m.len(), n * (n + 1) / 2);
    }

    #[test]
    fn row_is_contiguous_from_diagonal() {
        let n = 5;
        let mut m = TriMatrix::<f64>::new(n);
        for i in 0..n {
            for j in i..n {
                m.set(i, j, (i * 10 + j) as f64);
            }
        }
        assert_eq!(m.row(2), &[22.0, 23.0, 24.0]);
        assert_eq!(m.row(4), &[44.0]);
        let r = m.row_mut(0);
        r[3] = 99.0;
        assert_eq!(m.get(0, 3), 99.0);
    }

    #[test]
    fn columns_mirror_the_row_major_matrix() {
        let n = 6;
        let mut rows = TriMatrix::<u32>::new(n);
        let mut cols = TriColumns::<u32>::new(n);
        for i in 0..n {
            for j in i..n {
                rows.set(i, j, (i * 10 + j) as u32);
                cols.set(i, j, (i * 10 + j) as u32);
            }
        }
        for j in 0..n {
            let expected: Vec<u32> = (0..=j).map(|i| rows.get(i, j)).collect();
            assert_eq!(cols.column(j), expected.as_slice());
        }
    }

    #[test]
    fn single_slice_matrix() {
        let mut m = TriMatrix::<i32>::new(1);
        m.set(0, 0, -1);
        assert_eq!(m.get(0, 0), -1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_visits_all_cells_in_order() {
        let m = TriMatrix::<u8>::new(3);
        let cells: Vec<(usize, usize)> = m.iter().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(cells, vec![(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)] // bounds are debug_assert!s; release elides them
    fn lower_triangle_access_panics_in_debug() {
        let m = TriMatrix::<u8>::new(3);
        // i > j is invalid.
        let _ = m.get(2, 1);
    }
}
