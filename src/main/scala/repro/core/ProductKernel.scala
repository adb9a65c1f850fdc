package repro.core

import repro.linalg.DenseMatrix
import repro.tensor.CoreTensor

/** The one product kernel: every sum of `G_β ∏_k a^(k)_{i_k β_k}` over the
  * surviving core cells runs here (DESIGN.md §2). δ is
  * `G_(n) · (⊗_{k≠n} a^(k)_{i_k})`: one Kronecker row, then one register sum
  * per row `j` of the mode-`n` unfolding, `O(J^{N-1} + |G|)` per entry.
  * Unfoldings are CSR lists of the surviving cells, so dense and truncated
  * cores share one path. Only the flat factors and core are serialized; the
  * unfoldings are derived once per JVM. Safe for concurrent tasks.
  */
final class ProductKernel private (ranks: Array[Int], factors: Array[Array[Double]],
                                   cellIdx: Array[Int], cellVal: Array[Double])
  extends Serializable {

  private val order = ranks.length
  private val coreSize = ranks.product
  private def nCells = cellVal.length

  /** Row `j` of the mode-`n` unfolding is `start(j) until start(j + 1)`: each
    * cell's offset into `kron(·, n)`, value, and index in core-entry order.
    */
  private final class Unfolding(val start: Array[Int], val off: Array[Int],
                                val value: Array[Double], val cell: Array[Int]) {
    def dot(j: Int, kr: Array[Double]): Double = {
      var s = 0.0
      var p = start(j)
      while (p < start(j + 1)) { s += value(p) * kr(off(p)); p += 1 }
      s
    }
  }

  @transient private lazy val unfoldings = Array.tabulate(order) { n =>
    def at(b: Int, k: Int) = cellIdx(b * order + k)
    val cells = (0 until nCells).sortBy(at(_, n)).toArray // stable: entry order per row
    val start = Array.tabulate(ranks(n) + 1)(j => cells.count(at(_, n) < j))
    val off = cells.map { b =>
      (0 until order).filter(_ != n).foldRight(0)((k, o) => o * ranks(k) + at(b, k))
    }
    new Unfolding(start, off, cells.map(cellVal), cells)
  }

  @transient private lazy val scratch = new ThreadLocal[Array[Double]]

  /** `⊗_{k≠skip} a^(k)_{i_k}` over ascending modes, the first one fastest
    * (`HooiCommon.kronOffset`'s layout; `skip = -1` keeps every mode, giving
    * `DenseTensor`'s column-major order). Returns this thread's scratch row:
    * its first `∏_{k≠skip} J_k` values, overwritten by the next call.
    */
  def kron(idx: Array[Int], skip: Int): Array[Double] = {
    val len = if (skip >= 0) coreSize / ranks(skip) else coreSize
    var buf = scratch.get()
    if (buf == null || buf.length < len) { buf = new Array[Double](len); scratch.set(buf) }
    buf(0) = 1.0
    var cur = 1
    var k = 0
    while (k < order) {
      if (k != skip) {
        val base = idx(k) * ranks(k)
        var j = ranks(k) - 1 // block j = a_j · buf[0, cur); block 0, the source, last
        while (j >= 0) {
          val w = factors(k)(base + j)
          var c = 0
          while (c < cur) { buf(j * cur + c) = w * buf(c); c += 1 }
          j -= 1
        }
        cur *= ranks(k)
      }
      k += 1
    }
    buf
  }

  /** Eq. (13): `δ^(n)_α(j) = Σ_{β: β_n = j} G_β ∏_{k≠n} a^(k)_{i_k β_k}`. */
  def delta(idx: Array[Int], n: Int): Array[Double] = {
    val kr = kron(idx, n)
    val out = new Array[Double](ranks(n))
    var j = 0
    while (j < out.length) { out(j) = unfoldings(n).dot(j, kr); j += 1 }
    out
  }

  /** Eq. (5): `x̂_α = a^(0)_{i_0} · δ^(0)_α`. */
  def predict(idx: Array[Int]): Double = {
    val kr = kron(idx, 0)
    var s = 0.0
    var j = 0
    while (j < ranks(0)) { s += factors(0)(idx(0) * ranks(0) + j) * unfoldings(0).dot(j, kr); j += 1 }
    s
  }

  /** Algorithm 3 line 4: `Pres[β] = G_β ∏_k a^(k)_{i_k β_k}` per surviving
    * cell, in core-entry order.
    */
  def pres(idx: Array[Int]): Array[Double] = {
    val kr = kron(idx, 0)
    val u = unfoldings(0)
    val out = new Array[Double](nCells)
    var p = 0
    var j = 0
    while (j < ranks(0)) {
      val w = factors(0)(idx(0) * ranks(0) + j)
      while (p < u.start(j + 1)) { out(u.cell(p)) = w * u.value(p) * kr(u.off(p)); p += 1 }
      j += 1
    }
    out
  }

  /** Algorithm 3 line 12: `δ^(n)(j) = Σ_{β_n = j} Pres[β] / a^(n)_{i_n j}`; a
    * row whose `a^(n)_{i_n j}` is ~0 takes its value from [[delta]].
    */
  def deltaFromPres(idx: Array[Int], pres: Array[Double], n: Int): Array[Double] = {
    val u = unfoldings(n)
    val out = new Array[Double](ranks(n))
    var direct: Array[Double] = null
    var p = 0
    var j = 0
    while (j < ranks(n)) {
      val a = factors(n)(idx(n) * ranks(n) + j)
      var s = 0.0
      while (p < u.start(j + 1)) { s += pres(u.cell(p)); p += 1 }
      if (math.abs(a) > 1e-12) out(j) = s / a
      else { if (direct == null) direct = delta(idx, n); out(j) = direct(j) }
      j += 1
    }
    out
  }

  /** Algorithm 3 line 19: `Pres *= a_new / a_old` after `A^(n)` changed from
    * `oldFactor` (row-major) to this kernel's; cells whose `a_old` is ~0
    * take their value from a fresh [[pres]].
    */
  def patchPres(idx: Array[Int], pres: Array[Double], n: Int,
                oldFactor: Array[Double]): Array[Double] = {
    val u = unfoldings(n)
    val out = new Array[Double](pres.length)
    var fresh: Array[Double] = null
    var p = 0
    var j = 0
    while (j < ranks(n)) {
      val (aOld, aNew) = (oldFactor(idx(n) * ranks(n) + j), factors(n)(idx(n) * ranks(n) + j))
      if (math.abs(aOld) <= 1e-12 && fresh == null) fresh = this.pres(idx)
      while (p < u.start(j + 1)) {
        val b = u.cell(p)
        out(b) = if (math.abs(aOld) > 1e-12) pres(b) / aOld * aNew else fresh(b)
        p += 1
      }
      j += 1
    }
    out
  }
}

object ProductKernel {

  /** Kernel over the factors `A^(k)` and the surviving cells of `core`. */
  def apply(factors: Array[DenseMatrix], core: CoreTensor): ProductKernel = {
    require(core.dims.sameElements(factors.map(_.cols)), "core dims must equal the factor ranks")
    new ProductKernel(core.dims, factors.map(_.data), core.entries.flatMap(_.idx),
      core.entries.map(_.value))
  }

  /** Kernel over the factors only, for [[ProductKernel.kron]]. */
  def apply(factors: Array[DenseMatrix]): ProductKernel =
    new ProductKernel(factors.map(_.cols), factors.map(_.data), Array.emptyIntArray,
      Array.emptyDoubleArray)
}
