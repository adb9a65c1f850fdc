package repro.tensor

import repro.linalg.DenseMatrix

/** One (possibly surviving) cell of the core tensor `G`. */
final case class CoreEntry(idx: Array[Int], value: Double)

/** Core tensor `G ∈ R^{J_1×…×J_N}`, stored as the list of *alive* nonzero
  * cells so P-Tucker-Approx's truncation (Algorithm 4) literally shrinks
  * `|G|` and with it the per-iteration cost. The default (untruncated) core
  * is the full dense enumeration.
  */
final class CoreTensor(val dims: Array[Int], val entries: Array[CoreEntry]) extends Serializable {

  def order: Int = dims.length
  def nnz: Int = entries.length

  def toDense: DenseTensor = {
    val t = DenseTensor.zeros(dims)
    entries.foreach(e => t(e.idx) = e.value)
    t
  }

  /** Algorithm 4, line 4: drop the `count` cells with the largest partial
    * reconstruction error `R(β)` ("noisy" cells).
    */
  def truncate(rBeta: Array[Double], count: Int): CoreTensor = {
    require(rBeta.length == entries.length)
    val keep = entries.indices.sortBy(i => rBeta(i)).dropRight(count.min(entries.length))
    new CoreTensor(dims, keep.sorted.map(entries).toArray)
  }

  /** `G ×_n R` for the post-QR core update (Eq. 9). Result is dense again
    * (a matrix product fills truncated cells back in), which matches the
    * paper — truncation only happens during iterations, Eq. 9 at the end.
    */
  def modeProduct(n: Int, r: DenseMatrix): CoreTensor = {
    CoreTensor.fromDense(toDense.modeProduct(n, r))
  }
}

object CoreTensor {

  /** Full dense core with Uniform(0,1) cells (the paper's initialization). */
  def rand(dims: Array[Int], seed: Long): CoreTensor = {
    val rng = new scala.util.Random(seed)
    val cells = DenseTensor.indices(dims).map(idx => CoreEntry(idx, rng.nextDouble())).toArray
    new CoreTensor(dims.clone(), cells)
  }

  def fromDense(t: DenseTensor): CoreTensor = {
    val cells = DenseTensor.indices(t.dims).map(idx => CoreEntry(idx, t(idx))).toArray
    new CoreTensor(t.dims.clone(), cells)
  }
}
