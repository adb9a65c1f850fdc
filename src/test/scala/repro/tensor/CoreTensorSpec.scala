package repro.tensor

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.DenseMatrix

class CoreTensorSpec extends AnyFunSuite {

  test("rand enumerates the full dense core") {
    val c = CoreTensor.rand(Array(2, 3, 2), 1)
    assert(c.nnz == 12)
    assert(c.entries.forall(e => e.value >= 0.0 && e.value < 1.0))
  }

  test("rand is deterministic in the seed") {
    val a = CoreTensor.rand(Array(2, 2), 5).entries.map(_.value).toSeq
    val b = CoreTensor.rand(Array(2, 2), 5).entries.map(_.value).toSeq
    assert(a == b)
  }

  test("toDense/fromDense round-trip") {
    val c = CoreTensor.rand(Array(3, 2), 2)
    val back = CoreTensor.fromDense(c.toDense)
    assert(back.nnz == c.nnz)
    assert(back.entries.zip(c.entries).forall { case (x, y) =>
      x.idx.toSeq == y.idx.toSeq && x.value == y.value
    })
  }

  test("truncate drops exactly the highest-R cells") {
    val c = CoreTensor.rand(Array(2, 2), 4)
    val r = Array(0.1, 5.0, 0.2, 4.0) // cells 1 and 3 are noisiest
    val t = c.truncate(r, 2)
    assert(t.nnz == 2)
    val kept = t.entries.map(_.idx.toSeq).toSet
    assert(kept == Set(c.entries(0).idx.toSeq, c.entries(2).idx.toSeq))
  }

  test("truncate never removes more than nnz cells") {
    val c = CoreTensor.rand(Array(2, 2), 4)
    val t = c.truncate(Array(1.0, 2.0, 3.0, 4.0), 100)
    assert(t.nnz == 0)
  }

  test("modeProduct matches DenseTensor.modeProduct") {
    val c = CoreTensor.rand(Array(2, 3), 6)
    val r = DenseMatrix.rand(3, 3, 7)
    val viaCore = c.modeProduct(1, r).toDense
    val viaDense = c.toDense.modeProduct(1, r)
    assert(viaCore.maxAbsDiff(viaDense) < 1e-12)
  }

  test("modeProduct after truncation fills from surviving cells only") {
    val c = CoreTensor.rand(Array(2, 2), 8)
    val truncated = c.truncate(Array(10.0, 0.0, 0.0, 0.0), 1) // drop first cell
    val dense = truncated.toDense
    assert(dense(c.entries(0).idx) == 0.0)
    val r = DenseMatrix.eye(2)
    val back = truncated.modeProduct(0, r).toDense
    assert(back.maxAbsDiff(dense) < 1e-12)
  }
}
