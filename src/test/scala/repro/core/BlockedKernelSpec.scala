package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.{Local, Slab}

/** k-means' and the rounding's blocked kernels, bitwise against the
  * row-at-a-time loops they replace, on generated inputs.
  */
class BlockedKernelSpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(19L), p)
    assert(r.passed, org.scalacheck.util.Pretty.pretty(r))
  }

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private val entry: Gen[Double] = Gen.frequency(1 -> Gen.const(0.0), 2 -> Gen.choose(-10.0, 10.0))

  private def vec(w: Int): Gen[Array[Double]] = Gen.listOfN(w, entry).map(_.toArray)

  /** `n` rows of width `w`, some of them repeated. */
  private def slab(n: Int, w: Int): Gen[Slab] = for {
    rows <- Gen.listOfN(n, vec(w))
    dup <- Gen.listOfN(n, Gen.oneOf(true, false))
  } yield {
    val rs = rows.indices.map(i => if (dup(i) && i > 0) rows(i - 1) else rows(i))
    new Slab(Array.tabulate(n)(_.toLong), w, rs.flatten.toArray)
  }

  /** `sets` sets of `k` centres, some repeated (so distances tie) and some
    * rows of `s`.
    */
  private def centres(s: Slab, sets: Int, k: Int): Gen[Array[Array[Array[Double]]]] =
    Gen.listOfN(sets, Gen.listOfN(k, Gen.frequency(
      2 -> vec(s.width),
      1 -> (if (s.size == 0) vec(s.width) else Gen.choose(0, s.size - 1).map(s.row)))).map { cs =>
      cs.indices.map(c => if (c % 3 == 2) cs(c - 1).clone() else cs(c)).toArray
    }).map(_.toArray)

  private val case_ : Gen[(Slab, Array[Array[Array[Double]]])] = for {
    w <- Gen.oneOf(1, 4, 9, 164); n <- Gen.choose(0, 13); k <- Gen.choose(1, 9); sets <- Gen.choose(1, 3)
    s <- slab(n, w); cs <- centres(s, sets, k)
  } yield (s, cs)

  /** The nearest-centre rule the kernel replaces: the first centre at the
    * minimum `Local.sqDist`, and that distance.
    */
  private def nearest(v: Array[Double], cs: Array[Array[Double]]): (Int, Double) = {
    var best = 0; var bestD = Local.sqDist(v, cs(0))
    for (c <- 1 until cs.length) { val d = Local.sqDist(v, cs(c)); if (d < bestD) { bestD = d; best = c } }
    (best, bestD)
  }

  test("one Lloyd pass is bitwise the row-at-a-time pass: sums, counts and the first-minimum rule") {
    check(Prop.forAll(case_) { case (s, cs) =>
      val (sums, counts) = KMeansD.lloyd(s, cs, s.width)
      val k = cs(0).length; val dim = s.width
      cs.indices.forall { j =>
        val want = new Array[Double](k * dim); val n = new Array[Long](k)
        (0 until s.size).map(s.row).foreach { v =>
          val c = nearest(v, cs(j))._1
          for (i <- 0 until dim) want(c * dim + i) += v(i)
          n(c) += 1
        }
        bits(sums(j)) == bits(want) && counts(j).sameElements(n)
      }
    })
  }

  test("WSS is bitwise the row-at-a-time sum of squared distances to the nearest centre") {
    check(Prop.forAll(case_) { case (s, cs) =>
      val want = cs.map(c => (0 until s.size).map(s.row).foldLeft(0.0)((a, v) => a + nearest(v, c)._2))
      bits(KMeansD.wss(s, cs)) == bits(want)
    })
  }

  test("k-means++ seeding is bitwise the row-at-a-time seeding") {
    /** The seeding before its distances were taken 4 points at a time. */
    def reference(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
      val rng = new java.util.Random(Local.mix(seed))
      val centers = new Array[Array[Double]](k)
      centers(0) = points(rng.nextInt(points.length)).clone()
      val d2 = points.map(p => Local.sqDist(p, centers(0)))
      for (c <- 1 until k) {
        val total = d2.sum
        val idx =
          if (total <= 0) rng.nextInt(points.length)
          else {
            var r = rng.nextDouble() * total
            var i = 0
            while (i < points.length - 1 && r > d2(i)) { r -= d2(i); i += 1 }
            i
          }
        centers(c) = points(idx).clone()
        for (i <- points.indices) { val d = Local.sqDist(points(i), centers(c)); if (d < d2(i)) d2(i) = d }
      }
      centers
    }
    val g = for { w <- Gen.oneOf(1, 4, 9, 164); n <- Gen.choose(1, 13); s <- slab(n, w); k <- Gen.choose(1, 9); seed <- Gen.choose(0L, 99L) }
      yield ((0 until s.size).map(s.row).toArray, k, seed)
    check(Prop.forAll(g) { case (points, k, seed) =>
      KMeansD.plusPlusSeed(points, k, seed).map(bits).toSeq == reference(points, k, seed).map(bits).toSeq
    })
  }

  test("one rounding pass is bitwise the row-at-a-time pass: argmax of L·T, changed rows, LᵀC sums") {
    val g = for {
      k <- Gen.oneOf(1, 4, 9, 164); n <- Gen.choose(0, 13); s <- slab(n, k)
      t <- Gen.listOfN(k, vec(k)).map(_.toArray); prev <- Gen.option(Gen.listOfN(k, vec(k)).map(_.toArray))
    } yield (s, t, prev.orNull, k)
    check(Prop.forAll(g) { case (s, t, prev, k) =>
      val (sums, sizes, changed) = HopePlus.passPartial(s, t, prev, k)
      val want = new Array[Double](k * k); val n = new Array[Long](k); var ch = 0L
      (0 until s.size).map(s.row).foreach { v =>
        val j = Local.argmax(Local.vecMat(v, t))
        if (prev != null && Local.argmax(Local.vecMat(v, prev)) != j) ch += 1
        for (a <- 0 until k) want(j * k + a) += v(a)
        n(j) += 1
      }
      bits(sums) == bits(want) && sizes.sameElements(n) && changed == ch
    })
  }
}
