package perfbench

import repro.core.TuckerModel
import repro.linalg.DenseMatrix

/** Spark-free timings of single kernels through public entry points, on the
  * driver thread after a warm-up. Each returns the median over batches.
  */
object Kernels {

  /** Runs `body` (which does `ops` operations) in batches of at least
    * `minBatchNs`, `batches` times after one warm-up batch; median ns/op.
    */
  private def nsPerOp(ops: Int, batches: Int = 7, minBatchNs: Long = 20000000L)(body: => Unit): Double = {
    var reps = 1
    var t = timeNs { body }
    while (t < minBatchNs) { reps *= 2; t = timeNs { var r = 0; while (r < reps) { body; r += 1 } } }
    val samples = (1 to batches).map { _ =>
      timeNs { var r = 0; while (r < reps) { body; r += 1 } }.toDouble / (reps.toLong * ops)
    }
    Stats.median(samples)
  }

  private def timeNs(body: => Unit): Long = {
    val t0 = System.nanoTime(); body; System.nanoTime() - t0
  }

  @volatile private var sink = 0.0

  /** ns per `TuckerModel.predict` call over a fixed sample of cells. The
    * call flattens the factors and core on every invocation; that is part
    * of what is measured.
    */
  def predictNs(model: TuckerModel, seed: Long, sample: Int = 256): Double = {
    val rng = new scala.util.Random(seed)
    val idx = Array.fill(sample)(model.dims.map(d => rng.nextInt(d)))
    nsPerOp(sample) {
      var s = 0.0; var i = 0
      while (i < sample) { s += model.predict(idx(i)); i += 1 }
      sink += s
    }
  }

  /** ns per Eq.-10 row solve: `DenseMatrix.solve` of a J×J SPD system. */
  def solveNs(j: Int, seed: Long): Double = {
    val a = DenseMatrix.rand(2 * j, j, seed)
    val m = a.gram
    (0 until j).foreach(d => m(d, d) += 0.01)
    val b = Array.tabulate(j)(i => 1.0 + i)
    nsPerOp(1) { sink += DenseMatrix.solve(m, b)(0) }
  }

  /** ms per thin QR of a rows×j factor (the finalisation step's largest). */
  def qrMs(rows: Int, j: Int, seed: Long): Double = {
    val a = DenseMatrix.rand(rows, j, seed)
    nsPerOp(1, batches = 5, minBatchNs = 5000000L) { sink += DenseMatrix.qr(a)._2(0, 0) } / 1e6
  }
}
