use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major 2-D tensor of `f32` values.
///
/// This is the common currency between the codec, the baselines and the
/// model substrate. Weight matrices, activation matrices, gradients and
/// KV-cache slabs are all represented as `Tensor`s; higher-dimensional
/// tensors are handled by the callers as stacks of 2-D slices, mirroring how
/// the paper maps tensors onto video frames (layer index → temporal axis).
///
/// # Example
///
/// ```
/// use llm265_tensor::Tensor;
///
/// let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(t[(1, 2)], 5.0);
/// assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        // lint:allow(panic): decode paths bound rows·cols before building
        // tensors (codec.rs caps the product at 2^31), so overflow here
        // means a caller bug, not hostile input.
        let len = rows.checked_mul(cols).expect("tensor size overflow");
        Tensor {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut t = Tensor::zeros(rows, cols);
        t.data.fill(value);
        t
    }

    /// Creates a tensor from a closure mapping `(row, col)` to a value.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut t = Tensor::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                t.data[r * cols + c] = f(r, c);
            }
        }
        t
    }

    /// Creates a tensor by taking ownership of a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major backing slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {} out of bounds ({})", r, self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transposed tensor.
    pub fn transposed(&self) -> Tensor {
        Tensor::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix multiplication `self (m×k) * rhs (k×n) -> m×n`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions do not match.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dims mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                // Exact-zero skip is a pure perf shortcut — a true 0.0
                // contributes nothing to the row.
                if a == 0.0 {
                    continue;
                }
                let rrow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Adds `rhs` element-wise in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Subtracts `rhs` element-wise in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Returns `self - rhs` as a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.sub_assign(rhs);
        out
    }

    /// Maximum absolute value (0.0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Minimum and maximum values. Returns `(0.0, 0.0)` for an empty tensor.
    pub fn min_max(&self) -> (f32, f32) {
        if self.data.is_empty() {
            return (0.0, 0.0);
        }
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &x in &self.data {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        (lo, hi)
    }

    /// Squared Frobenius norm.
    pub fn sq_norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum()
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.shape(), (3, 4));
        assert_eq!(t.len(), 12);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let t = Tensor::from_fn(2, 3, |r, c| (10 * r + c) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(t[(1, 1)], 11.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(t.transposed().transposed(), t);
        assert_eq!(t.transposed()[(4, 2)], t[(2, 4)]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_fn(2, 2, |r, c| (r * 2 + c + 1) as f32);
        let id = Tensor::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn min_max_and_max_abs() {
        let t = Tensor::from_vec(1, 4, vec![-3.0, 0.5, 2.0, -0.1]);
        assert_eq!(t.min_max(), (-3.0, 2.0));
        assert_eq!(t.max_abs(), 3.0);
    }

    #[test]
    fn arithmetic_in_place() {
        let mut a = Tensor::full(2, 2, 2.0);
        let b = Tensor::full(2, 2, 0.5);
        a.add_assign(&b);
        assert_eq!(a.data(), &[2.5; 4]);
        a.sub_assign(&b);
        a.scale(2.0);
        assert_eq!(a.data(), &[4.0; 4]);
    }

    #[test]
    fn empty_tensor_edge_cases() {
        let t = Tensor::zeros(0, 7);
        assert!(t.is_empty());
        assert_eq!(t.min_max(), (0.0, 0.0));
        assert_eq!(t.max_abs(), 0.0);
        assert_eq!(t.sq_norm(), 0.0);
    }

    #[test]
    fn row_access() {
        let t = Tensor::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(t.row(0), &[0.0, 1.0, 2.0]);
        let mut t = t;
        t.row_mut(1)[0] = 99.0;
        assert_eq!(t[(1, 0)], 99.0);
    }
}
