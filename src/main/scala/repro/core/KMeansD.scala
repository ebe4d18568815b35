package repro.core

import org.apache.spark.sql.{DataFrame, Dataset}
import repro.linalg.{BRow, Local}

/** Distributed Lloyd k-Means over dense row-blocks, with k-means++ seeding on
  * a driver-side sample. Used by HOPE (Alg. 1 Line 5) and by every baseline
  * that clusters an embedding (SC, SCC, SBC, NRP, PPR, K-Means).
  */
object KMeansD {

  /** Cluster rows of `x` into k groups; returns `(id, cluster)`.
    *
    * Lloyd is restarted `restarts` times from different k-means++ seeds and
    * the solution with the lowest within-cluster sum of squares wins — the
    * standard guard against k-means' local optima (the paper's §4 motivates
    * HOPE+ with exactly this failure mode of HOPE).
    */
  def run(x: Dataset[BRow], k: Int, maxIters: Int = 25, seed: Long = 7L,
          sampleSize: Int = 4096, tol: Double = 1e-6, restarts: Int = 3): DataFrame = {
    val spark = x.sparkSession
    import spark.implicits._

    val cached = x.cache()
    val n = cached.count()
    require(n >= k, s"cannot make $k clusters from $n rows")

    val frac = math.min(1.0, (sampleSize * 2.0) / n.toDouble)
    var sample = cached.sample(withReplacement = false, frac, seed)
      .take(sampleSize).map(_.vec)
    if (sample.length < k) sample = cached.take(math.max(k, sampleSize)).map(_.vec)

    def lloyd(restartSeed: Long): (Array[Array[Double]], Double) = {
      var centers = plusPlusSeed(sample, k, restartSeed)
      var iter = 0
      var shift = Double.MaxValue
      while (iter < maxIters && shift > tol) {
        val bc = spark.sparkContext.broadcast(centers)
        val stats = cached
          .map { r => (nearest(r.vec, bc.value)._1, Local.axpy(1.0, r.vec), 1L) }
          .groupByKey(_._1)
          .reduceGroups { (a, b) => (a._1, Local.addInPlace(a._2, b._2), a._3 + b._3) }
          .map { case (_, (c, sum, cnt)) => (c, sum, cnt) }
          .collect()
        val next = centers.map(_.clone())
        val rng = new java.util.Random(Local.mix(restartSeed + iter))
        val seen = stats.map(_._1).toSet
        stats.foreach { case (c, sum, cnt) =>
          next(c) = Local.axpy(1.0 / cnt, sum)
        }
        // Re-seed empty clusters from random sample points.
        (0 until k).filterNot(seen.contains).foreach { c =>
          next(c) = sample(rng.nextInt(sample.length)).clone()
        }
        shift = centers.zip(next).map { case (a, b) => Local.sqDist(a, b) }.max
        centers = next
        iter += 1
      }
      val bc = spark.sparkContext.broadcast(centers)
      // Per-partition sums added in partition order: `reduce` would add them
      // in the order tasks finish.
      val wss = cached.mapPartitions { it =>
        Iterator.single(it.map(r => nearest(r.vec, bc.value)._2).sum)
      }.collect().sum
      (centers, wss)
    }

    // Keep the earliest restart unless a later one is strictly better beyond
    // float-reduction noise — WSS sums are only reproducible up to reduction
    // order, and determinism must not hinge on that.
    val (bestCenters, _) = (0 until math.max(1, restarts))
      .map(r => lloyd(seed + 1000L * r))
      .reduceLeft[(Array[Array[Double]], Double)] { (a, b) =>
        if (b._2 < a._2 * (1 - 1e-9) - 1e-12) b else a
      }

    val bc = spark.sparkContext.broadcast(bestCenters)
    val out = cached.map(r => (r.id, nearest(r.vec, bc.value)._1)).toDF("id", "cluster")
      .transform(repro.linalg.Block.localize)
    cached.unpersist()
    out
  }

  /** Index of the nearest center and the squared distance to it. */
  private def nearest(v: Array[Double], centers: Array[Array[Double]]): (Int, Double) = {
    var best = 0
    var bestD = Local.sqDist(v, centers(0))
    var c = 1
    while (c < centers.length) {
      val d = Local.sqDist(v, centers(c))
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    (best, bestD)
  }

  /** k-means++ seeding on a local sample (deterministic in `seed`). */
  def plusPlusSeed(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
    require(points.nonEmpty, "empty seeding sample")
    val rng = new java.util.Random(Local.mix(seed))
    val centers = new Array[Array[Double]](k)
    centers(0) = points(rng.nextInt(points.length)).clone()
    val d2 = points.map(p => Local.sqDist(p, centers(0)))
    var c = 1
    while (c < k) {
      val total = d2.sum
      var idx =
        if (total <= 0) rng.nextInt(points.length)
        else {
          var r = rng.nextDouble() * total
          var i = 0
          while (i < points.length - 1 && r > d2(i)) { r -= d2(i); i += 1 }
          i
        }
      centers(c) = points(idx).clone()
      var i = 0
      while (i < points.length) {
        val d = Local.sqDist(points(i), centers(c))
        if (d < d2(i)) d2(i) = d
        i += 1
      }
      c += 1
    }
    centers
  }
}
