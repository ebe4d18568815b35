package repro.core

import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset}
import repro.linalg.{BRow, Block, Local, SparseOp}

/** Distributed Lloyd k-Means over dense row-blocks, with k-means++ seeding on
  * a driver-side sample. Used by HOPE (Alg. 1 Line 5) and by every baseline
  * that clusters an embedding (SC, SCC, SBC, NRP, PPR, K-Means).
  *
  * Every pass over the rows is one single-stage Spark job without a shuffle:
  * each partition returns its partial sums, which the driver adds in
  * partition order. The restarts run in lockstep, so an iteration scores
  * each row against the centres of every restart still running.
  */
object KMeansD {

  /** Cluster rows of `x` into k groups; returns `(id, cluster)`.
    *
    * Lloyd is restarted `restarts` times from different k-means++ seeds and
    * the solution with the lowest within-cluster sum of squares wins — the
    * standard guard against k-means' local optima (the paper's §4 motivates
    * HOPE+ with exactly this failure mode of HOPE).
    *
    * The seeding sample is the `max(k, sampleSize)` rows with the smallest
    * `Local.mix(seed ^ id)`, in id order: a pure function of the seed and
    * the row ids, whatever the partitioning of `x`.
    */
  def run(x: Dataset[BRow], k: Int, maxIters: Int = 25, seed: Long = 7L,
          sampleSize: Int = 4096, tol: Double = 1e-6, restarts: Int = 3): DataFrame = {
    val spark = x.sparkSession
    import spark.implicits._
    val sc = spark.sparkContext
    val rows = x.rdd.map(r => (r.id, r.vec)).persist(SparseOp.Level)
    try {
      val (n, sample) = Block.labelJobs(sc, "kmeans/sample")(countAndSample(rows, seed, math.max(k, sampleSize)))
      require(n >= k, s"cannot make $k clusters from $n rows")
      val dim = sample.head.length

      val seeds = Array.tabulate(math.max(1, restarts))(r => seed + 1000L * r)
      val centers = seeds.map(plusPlusSeed(sample, k, _))
      val shift = Array.fill(seeds.length)(Double.MaxValue)
      var iter = 0
      var live = seeds.indices.toArray
      while (iter < maxIters && live.nonEmpty) {
        val cs = live.map(centers)
        val parts = Block.labelJobs(sc, s"kmeans/iter ${iter + 1}") {
          rows.mapPartitions { it =>
            val sums = Array.fill(cs.length)(new Array[Double](k * dim))
            val counts = Array.fill(cs.length)(new Array[Long](k))
            it.foreach { case (_, v) =>
              var j = 0
              while (j < cs.length) {
                val c = nearest(v, cs(j))._1
                val s = sums(j); val base = c * dim
                var i = 0
                while (i < dim) { s(base + i) += v(i); i += 1 }
                counts(j)(c) += 1
                j += 1
              }
            }
            Iterator.single((sums, counts))
          }.collect()
        }
        val sums = live.indices.map(j => Block.sumInOrder(parts.map(_._1(j))))
        val counts = live.indices.map(j => Array.tabulate(k)(c => parts.map(_._2(j)(c)).sum))
        live.indices.foreach { j =>
          val r = live(j)
          val next = centers(r).map(_.clone())
          (0 until k).filter(counts(j)(_) > 0).foreach { c =>
            next(c) = Local.axpy(1.0 / counts(j)(c), sums(j).slice(c * dim, (c + 1) * dim))
          }
          // Re-seed empty clusters from random sample points.
          val rng = new java.util.Random(Local.mix(seeds(r) + iter))
          (0 until k).filter(counts(j)(_) == 0).foreach { c =>
            next(c) = sample(rng.nextInt(sample.length)).clone()
          }
          shift(r) = centers(r).zip(next).map { case (a, b) => Local.sqDist(a, b) }.max
          centers(r) = next
        }
        live = live.filter(shift(_) > tol)
        iter += 1
      }

      val wss = Block.labelJobs(sc, "kmeans/wss") {
        Block.sumInOrder(rows.mapPartitions { it =>
          val acc = new Array[Double](centers.length)
          it.foreach { case (_, v) =>
            var r = 0
            while (r < centers.length) { acc(r) += nearest(v, centers(r))._2; r += 1 }
          }
          Iterator.single(acc)
        }.collect())
      }
      // Keep the earliest restart unless a later one is strictly better beyond
      // float-reduction noise — WSS sums are only reproducible up to reduction
      // order, and determinism must not hinge on that.
      val (best, _) = centers.zip(wss).reduceLeft[(Array[Array[Double]], Double)] { (a, b) =>
        if (b._2 < a._2 * (1 - 1e-9) - 1e-12) b else a
      }

      Block.labelJobs(sc, "kmeans/assign") {
        Block.localize(rows.map { case (id, v) => (id, nearest(v, best)._1) }.toDF("id", "cluster"))
      }
    } finally rows.unpersist()
  }

  /** The number of rows and the seeding sample: the `m` rows with the
    * smallest `(Local.mix(seed ^ id), id)`, ordered by id. Each partition
    * keeps its own bottom m; the driver merges them.
    */
  private def countAndSample(rows: RDD[(Long, Array[Double])], seed: Long, m: Int): (Long, Array[Array[Double]]) = {
    val order = Ordering.by[(Long, Long, Array[Double]), (Long, Long)](e => (e._1, e._2))
    val parts = rows.mapPartitions { it =>
      var count = 0L
      val heap = mutable.PriorityQueue.empty(order) // largest key on top
      it.foreach { case (id, v) =>
        count += 1
        val e = (Local.mix(seed ^ id), id, v)
        if (heap.size < m) heap.enqueue(e)
        else if (order.lt(e, heap.head)) { heap.dequeue(); heap.enqueue(e) }
      }
      Iterator.single((count, heap.toArray))
    }.collect()
    (parts.map(_._1).sum, parts.flatMap(_._2).sorted(order).take(m).sortBy(_._2).map(_._3))
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
      val idx =
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
