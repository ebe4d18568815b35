package repro.core

import repro.SparkSpec
import repro.linalg.{BRow, Block, Local}

/** Distributed Lloyd k-means on separable synthetic blobs. */
class KMeansDSpec extends SparkSpec {

  private lazy val sp = spark

  private def blobs(n: Int, k: Int, dim: Int, sep: Double, seed: Int) = {
    import sp.implicits._
    val rnd = new scala.util.Random(seed)
    val centers = Array.fill(k)(Array.fill(dim)(rnd.nextGaussian() * sep))
    val rows = (0 until n).map { i =>
      val c = i % k
      BRow(i.toLong, centers(c).map(_ + rnd.nextGaussian() * 0.1))
    }
    (rows.toDS(), (0 until n).map(i => i.toLong -> (i % k)))
  }

  test("recovers well-separated blobs exactly") {
    import sp.implicits._
    val (x, truth) = blobs(300, 4, 6, sep = 5.0, seed = 1)
    val assign = KMeansD.run(x, 4, seed = 3)
    val s = Metrics.evaluate(assign, truth.toDF("id", "label"))
    assert(s.ari > 0.99, s"ARI ${s.ari}")
  }

  test("returns an assignment for every input row with clusters in range") {
    val (x, _) = blobs(150, 3, 4, sep = 3.0, seed = 2)
    val assign = KMeansD.run(x, 3, seed = 1)
    repro.TestGraphs.assertValidAssignment(assign, 150, 3)
  }

  test("is deterministic for a fixed seed") {
    val (x, _) = blobs(120, 3, 4, sep = 3.0, seed = 5)
    val a = KMeansD.run(x, 3, seed = 9).collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    val b = KMeansD.run(x, 3, seed = 9).collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    assert(a.sameElements(b))
  }

  /** Sequential Lloyd restarts on the collected rows, with the seeding
    * sample, restart seeds, empty-cluster re-seeding, stop rule and
    * earliest-wins choice that `KMeansD.run` documents.
    */
  private def localKMeans(rows: Map[Long, Array[Double]], k: Int, maxIters: Int, seed: Long,
                          sampleSize: Int, tol: Double = 1e-6, restarts: Int = 3): Map[Long, Int] = {
    val ids = rows.keys.toArray.sorted
    val sample = ids.sortBy(id => (Local.mix(seed ^ id), id)).take(math.max(k, sampleSize)).sorted.map(rows)
    def nearest(v: Array[Double], cs: Array[Array[Double]]) = cs.indices.minBy(c => Local.sqDist(v, cs(c)))
    def lloyd(restartSeed: Long): (Array[Array[Double]], Double) = {
      var centers = KMeansD.plusPlusSeed(sample, k, restartSeed)
      var iter = 0
      var shift = Double.MaxValue
      while (iter < maxIters && shift > tol) {
        val assign = ids.map(id => nearest(rows(id), centers))
        val rng = new java.util.Random(Local.mix(restartSeed + iter))
        val next = Array.tabulate(k) { c =>
          val members = ids.indices.filter(assign(_) == c).map(i => rows(ids(i)))
          if (members.isEmpty) sample(rng.nextInt(sample.length)).clone()
          else Local.axpy(1.0 / members.length, members.map(_.clone()).reduceLeft(Local.addInPlace))
        }
        shift = centers.zip(next).map { case (a, b) => Local.sqDist(a, b) }.max
        centers = next
        iter += 1
      }
      (centers, ids.map(id => Local.sqDist(rows(id), centers(nearest(rows(id), centers)))).sum)
    }
    val (best, _) = (0 until restarts).map(r => lloyd(seed + 1000L * r))
      .reduceLeft[(Array[Array[Double]], Double)] { (a, b) => if (b._2 < a._2 * (1 - 1e-9) - 1e-12) b else a }
    ids.map(id => id -> nearest(rows(id), best)).toMap
  }

  test("lockstep restarts match sequential local Lloyd restarts") {
    import sp.implicits._
    // Overlapping blobs (restarts disagree), a bottom-k sample smaller than
    // the input, an iteration cap that stops some restarts early, and 5
    // distinct points for 7 clusters (empty clusters every pass; their
    // re-seeds land on duplicate points, so they move no assignment), and
    // 5 rows in 16 partitions: parallelize puts them in slices 3, 6, 9, 12
    // and 15, so the first partition and 10 others hold no row.
    val (overlap, _) = blobs(300, 4, 4, sep = 0.15, seed = 11)
    val dup = (0 until 60).map(i => BRow(i.toLong, Array(i % 5 * 1.0, (i % 5) * (i % 5) * 0.5))).toDS()
    val sparse = sp.createDataset(sp.sparkContext.parallelize((0 until 5).map(i => BRow(i.toLong, Array(i * 1.0, (i % 2) * 3.0))), 16))
    assert(sparse.rdd.glom().collect().map(_.length).toSeq == Seq(0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1))
    Seq((overlap, 4, 25, 4096), (overlap, 4, 3, 40), (overlap.repartition(7), 5, 25, 60), (dup, 7, 6, 4096),
        (sparse, 2, 25, 4096))
      .zipWithIndex.foreach { case ((x, k, iters, sampleSize), n) =>
        val got = KMeansD.run(x, k, maxIters = iters, seed = 13 + n, sampleSize = sampleSize)
          .as[(Long, Int)].collect().toMap
        val want = localKMeans(Block.collectMap(x), k, iters, seed = 13 + n, sampleSize)
        assert(got == want, s"case $n")
      }
  }

  test("rejects k greater than the number of rows") {
    import sp.implicits._
    val x = Seq(BRow(0L, Array(1.0)), BRow(1L, Array(2.0))).toDS()
    assertThrows[IllegalArgumentException](KMeansD.run(x, 5))
  }

  test("k-means++ seeding picks k distinct-ish centers") {
    val rnd = new scala.util.Random(4)
    val pts = Array.fill(100)(Array.fill(3)(rnd.nextGaussian()))
    val centers = KMeansD.plusPlusSeed(pts, 5, seed = 2)
    assert(centers.length == 5)
    // centers come from the sample
    centers.foreach(c => assert(pts.exists(p => p.sameElements(c))))
  }

  test("k-means++ seeding is deterministic") {
    val rnd = new scala.util.Random(6)
    val pts = Array.fill(50)(Array.fill(2)(rnd.nextGaussian()))
    val a = KMeansD.plusPlusSeed(pts, 4, seed = 8)
    val b = KMeansD.plusPlusSeed(pts, 4, seed = 8)
    assert(a.zip(b).forall { case (x, y) => x.sameElements(y) })
  }

  test("objective does not explode: within-cluster distance below random baseline") {
    import sp.implicits._
    val (x, _) = blobs(200, 4, 5, sep = 4.0, seed = 7)
    val assign = KMeansD.run(x, 4, seed = 5)
    val joined = x.toDF("id", "vec").join(assign, "id")
      .as[(Long, Array[Double], Int)].collect()
    val byCluster = joined.groupBy(_._3)
    val wss = byCluster.values.map { g =>
      val dim = g.head._2.length
      val mean = new Array[Double](dim)
      g.foreach(r => r._2.indices.foreach(i => mean(i) += r._2(i) / g.size))
      g.map(r => Local.sqDist(r._2, mean)).sum
    }.sum
    // Random 4-way split of blobs with sep=4 would leave WSS ~ n·sep²; tight
    // clusters give WSS ~ n·dim·0.01.
    assert(wss < 200 * 5 * 0.05, s"WSS too high: $wss")
  }
}
