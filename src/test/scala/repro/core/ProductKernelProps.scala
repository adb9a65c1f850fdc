package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.baselines.HooiCommon
import repro.linalg.DenseMatrix
import repro.tensor.{CoreEntry, CoreTensor, DenseTensor}

/** [[ProductKernel]] against straight-from-the-definition Eq. (5)/(13)
  * references on random shapes: N from 2 to 5, uneven ranks, dense and
  * truncated cores (down to one surviving cell), and factor rows holding
  * exact zeros (which drive the Pres fallbacks).
  */
object ProductKernelProps extends Properties("ProductKernel") {

  private final case class Case(ranks: Array[Int], factors: Array[DenseMatrix],
                                core: CoreTensor, points: Seq[Array[Int]]) {
    val kernel: ProductKernel = ProductKernel(factors, core)

    /** `G_β ∏_{k≠skip} a^(k)_{i_k β_k}` (`skip = -1`: every mode), literally. */
    def term(idx: Array[Int], e: CoreEntry, skip: Int): Double =
      ranks.indices.filter(_ != skip).map(k => factors(k)(idx(k), e.idx(k))).product * e.value

    /** Eq. (13). */
    def refDelta(idx: Array[Int], n: Int): Array[Double] = {
      val out = new Array[Double](ranks(n))
      core.entries.foreach(e => out(e.idx(n)) += term(idx, e, n))
      out
    }

    override def toString: String =
      s"ranks=${ranks.toSeq} dims=${factors.map(_.rows).toSeq} |G|=${core.nnz} " +
        s"zeros=${factors.map(_.data.count(_ == 0.0)).sum}"
  }

  private def close(a: Double, b: Double): Boolean =
    math.abs(a - b) <= 1e-10 * math.max(1.0, math.abs(b))

  private def closeAll(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i => close(a(i), b(i)))

  private val caseGen: Gen[Case] = for {
    order <- Gen.choose(2, 5)
    ranks <- Gen.listOfN(order, Gen.choose(1, 4)).map(_.toArray)
    extra <- Gen.listOfN(order, Gen.choose(0, 3))
    keep <- Gen.frequency(1 -> Gen.const(ranks.product), 1 -> Gen.const(1),
      2 -> Gen.choose(1, ranks.product))
    zeroShare <- Gen.oneOf(0.0, 0.3)
    seed <- Gen.choose(0L, 10000L)
  } yield {
    val rng = new scala.util.Random(seed)
    val dims = ranks.zip(extra).map { case (r, e) => r + e }
    val factors = Array.tabulate(order) { k =>
      val f = DenseMatrix.rand(dims(k), ranks(k), seed + k)
      f.data.indices.foreach(i => if (rng.nextDouble() < zeroShare) f.data(i) = 0.0)
      f
    }
    val full = CoreTensor.rand(ranks, seed + 100)
    val core = full.truncate(Array.fill(full.nnz)(rng.nextDouble()), full.nnz - keep)
    val points = Seq.fill(5)(dims.map(rng.nextInt))
    Case(ranks, factors, core, points)
  }

  property("kron(idx, skip) holds ∏_{k≠skip} a^(k) at HooiCommon.kronOffset") =
    Prop.forAll(caseGen) { c =>
      c.points.forall { idx =>
        (-1 until c.ranks.length).forall { skip =>
          val kr = c.kernel.kron(idx, skip).clone()
          DenseTensor.indices(c.ranks).forall { beta =>
            close(kr(HooiCommon.kronOffset(beta, c.ranks, skip)),
              c.term(idx, CoreEntry(beta, 1.0), skip))
          }
        }
      }
    }

  property("delta equals the Eq. (13) reference in every mode") =
    Prop.forAll(caseGen) { c =>
      c.points.forall { idx =>
        c.ranks.indices.forall(n => closeAll(c.kernel.delta(idx, n), c.refDelta(idx, n)))
      }
    }

  property("predict equals the Eq. (5) reference") =
    Prop.forAll(caseGen) { c =>
      c.points.forall { idx =>
        close(c.kernel.predict(idx), c.core.entries.map(e => c.term(idx, e, -1)).sum)
      }
    }

  property("pres holds G_β ∏_k a^(k) per cell, in core-entry order") =
    Prop.forAll(caseGen) { c =>
      c.points.forall { idx =>
        closeAll(c.kernel.pres(idx), c.core.entries.map(e => c.term(idx, e, -1)))
      }
    }

  property("deltaFromPres and patchPres equal the references, zero entries included") =
    Prop.forAll(caseGen, Gen.choose(0L, 10000L)) { (c, seed) =>
      c.points.forall { idx =>
        c.ranks.indices.forall { n =>
          val pres = c.kernel.pres(idx)
          val updated = c.factors.clone()
          updated(n) = DenseMatrix.rand(c.factors(n).rows, c.ranks(n), seed)
          val after = Case(c.ranks, updated, c.core, Nil)
          closeAll(c.kernel.deltaFromPres(idx, pres, n), c.refDelta(idx, n)) &&
            closeAll(after.kernel.patchPres(idx, pres, n, c.factors(n).data),
              c.core.entries.map(e => after.term(idx, e, -1)))
        }
      }
    }
}
