/// A single 8-bit grayscale (Luma) frame.
///
/// The paper feeds tensors to the codec as Luma-only frames after rounding
/// values to 8 bits (§3.2); this type is that frame. Coordinates are
/// `(x, y)` with `x` the column, matching video convention.
///
/// # Example
///
/// ```
/// use llm265_videocodec::Frame;
///
/// let f = Frame::from_fn(4, 2, |x, y| (x + 10 * y) as u8);
/// assert_eq!(f.get(3, 1), 13);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Frame {
    /// Creates a frame filled with mid-gray (128), the codec's neutral
    /// level.
    pub fn new(width: usize, height: usize) -> Self {
        Frame {
            width,
            height,
            data: vec![128; width * height],
        }
    }

    /// Creates a frame from a closure mapping `(x, y)` to a pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut fr = Frame::new(width, height);
        for y in 0..height {
            for x in 0..width {
                fr.data[y * width + x] = f(x, y);
            }
        }
        fr
    }

    /// Creates a frame by taking ownership of a row-major pixel buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), width * height, "pixel buffer length mismatch");
        Frame {
            width,
            height,
            data,
        }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major pixel buffer.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[y * self.width + x] = v;
    }

    /// Pixel with edge clamping — reads outside the frame return the
    /// nearest edge pixel (used by motion compensation).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        // `max(0)` makes the conversion infallible; `min` clamps to the
        // far edge without ever leaving the unsigned domain.
        let x = usize::try_from(x.max(0)).unwrap_or(0).min(self.width - 1);
        let y = usize::try_from(y.max(0)).unwrap_or(0).min(self.height - 1);
        self.data[y * self.width + x]
    }

    /// Returns a copy padded with edge replication so both dimensions are
    /// multiples of `align`. The codec pads to the CTU size and crops back
    /// after decoding.
    pub fn padded_to(&self, align: usize) -> Frame {
        let pw = self.width.div_ceil(align) * align;
        let ph = self.height.div_ceil(align) * align;
        if pw == self.width && ph == self.height {
            return self.clone();
        }
        Frame::from_fn(pw, ph, |x, y| {
            self.get(x.min(self.width - 1), y.min(self.height - 1))
        })
    }

    /// Returns the top-left `width × height` crop.
    ///
    /// # Panics
    ///
    /// Panics if the crop exceeds the frame.
    pub fn cropped(&self, width: usize, height: usize) -> Frame {
        assert!(
            width <= self.width && height <= self.height,
            "crop too large"
        );
        let mut data = Vec::with_capacity(width * height);
        for row in self.data.chunks_exact(self.width.max(1)).take(height) {
            data.extend_from_slice(&row[..width]);
        }
        Frame::from_vec(width, height, data)
    }

    /// Copies the `size × size` block at `(x0, y0)` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the frame or `out` is too small.
    pub fn read_block(&self, x0: usize, y0: usize, size: usize, out: &mut [i32]) {
        assert!(x0 + size <= self.width && y0 + size <= self.height);
        assert!(out.len() >= size * size);
        if size == 0 {
            return;
        }
        let rows = self.data[y0 * self.width..].chunks_exact(self.width);
        for (row, o) in rows.zip(out.chunks_exact_mut(size)).take(size) {
            for (o, &p) in o.iter_mut().zip(&row[x0..x0 + size]) {
                *o = i32::from(p);
            }
        }
    }

    /// Writes a `size × size` block of clamped values at `(x0, y0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the frame.
    pub fn write_block(&mut self, x0: usize, y0: usize, size: usize, block: &[i32]) {
        assert!(x0 + size <= self.width && y0 + size <= self.height);
        assert!(block.len() >= size * size);
        if size == 0 {
            return;
        }
        let rows = self.data[y0 * self.width..].chunks_exact_mut(self.width);
        for (row, b) in rows.zip(block.chunks_exact(size)).take(size) {
            for (o, &v) in row[x0..x0 + size].iter_mut().zip(b) {
                *o = v.clamp(0, 255) as u8;
            }
        }
    }

    /// Saves the `size × size` region at `(x0, y0)` into `out`, replacing
    /// its contents and keeping its allocation (for RD trial rollback).
    pub(crate) fn save_region_into(&self, x0: usize, y0: usize, size: usize, out: &mut Vec<u8>) {
        out.clear();
        for y in 0..size {
            let row = (y0 + y) * self.width;
            out.extend_from_slice(&self.data[row + x0..row + x0 + size]);
        }
    }

    /// Restores a region previously captured with `save_region_into`.
    pub(crate) fn restore_region(&mut self, x0: usize, y0: usize, size: usize, saved: &[u8]) {
        for y in 0..size {
            let row = (y0 + y) * self.width;
            self.data[row + x0..row + x0 + size].copy_from_slice(&saved[y * size..(y + 1) * size]);
        }
    }

    /// Sum of squared differences against another frame.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn ssd(&self, other: &Frame) -> u64 {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "ssd size mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = i64::from(a) - i64::from(b);
                (d * d).unsigned_abs()
            })
            .sum()
    }

    /// Mean square error against another frame, in pixel² units.
    pub fn mse(&self, other: &Frame) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.ssd(other) as f64 / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_mid_gray() {
        let f = Frame::new(3, 2);
        assert!(f.data().iter().all(|&p| p == 128));
    }

    #[test]
    fn padding_replicates_edges() {
        let f = Frame::from_fn(5, 3, |x, y| (x * 10 + y) as u8);
        let p = f.padded_to(4);
        assert_eq!(p.width(), 8);
        assert_eq!(p.height(), 4);
        // Right edge replicated from column 4.
        assert_eq!(p.get(7, 0), f.get(4, 0));
        // Bottom edge replicated from row 2.
        assert_eq!(p.get(2, 3), f.get(2, 2));
        // Corner replicated.
        assert_eq!(p.get(7, 3), f.get(4, 2));
        // Cropping back recovers the original.
        assert_eq!(p.cropped(5, 3), f);
    }

    #[test]
    fn padding_noop_when_aligned() {
        let f = Frame::from_fn(8, 8, |x, y| (x ^ y) as u8);
        assert_eq!(f.padded_to(8), f);
    }

    #[test]
    fn block_roundtrip() {
        let mut f = Frame::new(8, 8);
        let block: Vec<i32> = (0..16).map(|i| i * 17 - 30).collect();
        f.write_block(2, 3, 4, &block);
        let mut out = vec![0i32; 16];
        f.read_block(2, 3, 4, &mut out);
        let expect: Vec<i32> = block.iter().map(|&v| v.clamp(0, 255)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn save_restore_region() {
        let mut f = Frame::from_fn(8, 8, |x, y| (x + 8 * y) as u8);
        let mut saved = vec![7; 3];
        f.save_region_into(2, 2, 4, &mut saved);
        for y in 2..6 {
            for x in 2..6 {
                f.set(x, y, 0);
            }
        }
        f.restore_region(2, 2, 4, &saved);
        assert_eq!(f, Frame::from_fn(8, 8, |x, y| (x + 8 * y) as u8));
    }

    #[test]
    fn ssd_and_mse() {
        let a = Frame::from_vec(2, 1, vec![10, 20]);
        let b = Frame::from_vec(2, 1, vec![13, 16]);
        assert_eq!(a.ssd(&b), 9 + 16);
        assert_eq!(a.mse(&b), 12.5);
    }

    #[test]
    fn clamped_reads() {
        let f = Frame::from_fn(4, 4, |x, y| (x * 4 + y) as u8);
        assert_eq!(f.get_clamped(-5, -5), f.get(0, 0));
        assert_eq!(f.get_clamped(10, 2), f.get(3, 2));
    }
}
