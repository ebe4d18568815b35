package repro.core

import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.linalg.{BRow, Block, Local, Slab, SparseOp}

/** Distributed Lloyd k-Means over dense row-blocks, with k-means++ seeding on
  * a driver-side sample. Used by HOPE (Alg. 1 Line 5) and by every baseline
  * that clusters an embedding (SC, SCC, SBC, NRP, PPR, K-Means).
  *
  * Every pass over the rows is one single-stage Spark job without a shuffle:
  * each partition returns its partial sums, which the driver adds in
  * partition order. The restarts run in lockstep, so an iteration scores
  * each row against the centres of every restart still running. The rows
  * are persisted as one [[Slab]] per partition, in the input's partition
  * order; distances to the centres are taken 4 centres at a time
  * ([[Local.sqDist4]]), each sum in the order of `Local.sqDist`, and the
  * nearest centre is the first one at the minimum distance.
  */
object KMeansD {

  /** Lloyd runs per call, each from its own k-means++ seed (see [[run]]). */
  private val Restarts = 3

  /** A restart stops once no centre moves by more than this (squared). */
  private val Tol = 1e-6

  /** Cluster the rows of the block `x` into k groups; returns `(id, cluster)`.
    *
    * Lloyd is restarted [[Restarts]] times from different k-means++ seeds and
    * the solution with the lowest within-cluster sum of squares wins — the
    * standard guard against k-means' local optima (the paper's §4 motivates
    * HOPE+ with exactly this failure mode of HOPE).
    *
    * The seeding sample is the `max(k, sampleSize)` rows with the smallest
    * `Local.mix(seed ^ id)`, in id order: a pure function of the seed and
    * the row ids, whatever the partitioning of `x`. `x` is read through a
    * view this call persists and releases; the caller's block is left as it
    * was.
    */
  def run(x: RDD[Slab], k: Int, maxIters: Int = 25, seed: Long = 7L, sampleSize: Int = 4096): DataFrame = {
    val spark = SparkSession.active
    import spark.implicits._
    val sc = x.sparkContext
    val rows = SparseOp.mapSlabs(x)(identity).persist(SparseOp.Level)
    try {
      val (n, sample) = Block.labelJobs(sc, "kmeans/sample")(countAndSample(rows, seed, math.max(k, sampleSize)))
      require(n >= k, s"cannot make $k clusters from $n rows")
      val dim = sample.head.length

      val seeds = Array.tabulate(Restarts)(r => seed + 1000L * r)
      val centers = seeds.map(plusPlusSeed(sample, k, _))
      val shift = Array.fill(seeds.length)(Double.MaxValue)
      var iter = 0
      var live = seeds.indices.toArray
      while (iter < maxIters && live.nonEmpty) {
        val cs = live.map(centers)
        val parts = Block.labelJobs(sc, s"kmeans/iter ${iter + 1}") {
          rows.map(lloyd(_, cs, dim)).collect()
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
        live = live.filter(shift(_) > Tol)
        iter += 1
      }

      val scores = Block.labelJobs(sc, "kmeans/wss") {
        Block.sumInOrder(rows.map(wss(_, centers)).collect())
      }
      // Keep the earliest restart unless a later one is strictly better beyond
      // float-reduction noise — WSS sums are only reproducible up to reduction
      // order, and determinism must not hinge on that.
      val (best, _) = centers.zip(scores).reduceLeft[(Array[Array[Double]], Double)] { (a, b) =>
        if (b._2 < a._2 * (1 - 1e-9) - 1e-12) b else a
      }

      Block.labelJobs(sc, "kmeans/assign") {
        Block.localize(rows.flatMap { x =>
          val d = new Array[Double](k)
          Iterator.tabulate(x.size)(i => (x.ids(i), nearest(x.values, i * dim, best, d)))
        }.toDF("id", "cluster"))
      }
    } finally rows.unpersist()
  }

  /** [[run]] on a Dataset's rows, one slab per partition: the benchmark's signature. */
  def run(x: Dataset[BRow], k: Int, maxIters: Int, seed: Long): DataFrame =
    run(Block.slabs(x), k, maxIters, seed)

  /** The number of rows and the seeding sample: the `m` rows with the
    * smallest `(Local.mix(seed ^ id), id)`, ordered by id. Each partition
    * keeps its own bottom m; the driver merges them.
    */
  private def countAndSample(rows: RDD[Slab], seed: Long, m: Int): (Long, Array[Array[Double]]) = {
    val order = Ordering.by[(Long, Long, Int), (Long, Long)](e => (e._1, e._2))
    val parts = rows.map { x =>
      val heap = mutable.PriorityQueue.empty(order) // largest key on top
      var i = 0
      while (i < x.size) {
        val e = (Local.mix(seed ^ x.ids(i)), x.ids(i), i)
        if (heap.size < m) heap.enqueue(e)
        else if (order.lt(e, heap.head)) { heap.dequeue(); heap.enqueue(e) }
        i += 1
      }
      (x.size.toLong, heap.toArray.map { case (key, id, i) => (key, id, x.row(i)) })
    }.collect()
    val byKey = Ordering.by[(Long, Long, Array[Double]), (Long, Long)](e => (e._1, e._2))
    (parts.map(_._1).sum, parts.flatMap(_._2).sorted(byKey).take(m).sortBy(_._2).map(_._3))
  }

  /** One Lloyd pass over the rows of `x` for each set of centres `cs(j)`:
    * per set, the flat row-major sums of the rows nearest to each centre,
    * added in row order, and the number of those rows. `dim` is the rows'
    * width, which a slab built from an empty partition does not know.
    */
  private[core] def lloyd(x: Slab, cs: Array[Array[Array[Double]]], dim: Int): (Array[Array[Double]], Array[Array[Long]]) = {
    val k = cs(0).length
    val sums = Array.fill(cs.length)(new Array[Double](k * dim))
    val counts = Array.fill(cs.length)(new Array[Long](k))
    val d = new Array[Double](k)
    var r = 0
    while (r < x.size) {
      val o = r * dim
      var j = 0
      while (j < cs.length) {
        val c = nearest(x.values, o, cs(j), d)
        val s = sums(j); val base = c * dim
        var i = 0
        while (i < dim) { s(base + i) += x.values(o + i); i += 1 }
        counts(j)(c) += 1
        j += 1
      }
      r += 1
    }
    (sums, counts)
  }

  /** Per set of centres `cs(j)`, the sum over the rows of `x` of the
    * squared distance to the nearest centre, added in row order.
    */
  private[core] def wss(x: Slab, cs: Array[Array[Array[Double]]]): Array[Double] = {
    val acc = new Array[Double](cs.length)
    val d = new Array[Double](cs(0).length)
    var i = 0
    while (i < x.size) {
      var j = 0
      while (j < cs.length) { acc(j) += d(nearest(x.values, i * x.width, cs(j), d)); j += 1 }
      i += 1
    }
    acc
  }

  /** The index of the first centre nearest to row `x(o until o + dim)`,
    * with every centre's squared distance left in `d`.
    */
  private[core] def nearest(x: Array[Double], o: Int, centers: Array[Array[Double]], d: Array[Double]): Int = {
    distances(x, o, centers, d)
    var best = 0
    var c = 1
    while (c < centers.length) { if (d(c) < d(best)) best = c; c += 1 }
    best
  }

  /** `d(c) = Local.sqDist(x(o until o + dim), centers(c))`, 4 centres at a
    * time.
    */
  private def distances(x: Array[Double], o: Int, centers: Array[Array[Double]], d: Array[Double]): Unit = {
    val dim = centers(0).length
    var c = 0
    while (c + 4 <= centers.length) {
      Local.sqDist4(x, o, dim, centers(c), centers(c + 1), centers(c + 2), centers(c + 3), d, c)
      c += 4
    }
    while (c < centers.length) { d(c) = Local.sqDist(x, o, dim, centers(c)); c += 1 }
  }

  /** k-means++ seeding on a local sample (deterministic in `seed`). */
  def plusPlusSeed(points: Array[Array[Double]], k: Int, seed: Long): Array[Array[Double]] = {
    require(points.nonEmpty, "empty seeding sample")
    val rng = new java.util.Random(Local.mix(seed))
    val centers = new Array[Array[Double]](k)
    centers(0) = points(rng.nextInt(points.length)).clone()
    val d2 = new Array[Double](points.length)
    toCentre(points, centers(0), d2)
    val d = new Array[Double](points.length)
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
      toCentre(points, centers(c), d)
      var i = 0
      while (i < points.length) { if (d(i) < d2(i)) d2(i) = d(i); i += 1 }
      c += 1
    }
    centers
  }

  /** `d(i) = Local.sqDist(points(i), centre)`, 4 points at a time. */
  private def toCentre(points: Array[Array[Double]], centre: Array[Double], d: Array[Double]): Unit = {
    val dim = centre.length
    var i = 0
    while (i + 4 <= points.length) {
      Local.sqDist4(centre, 0, dim, points(i), points(i + 1), points(i + 2), points(i + 3), d, i)
      i += 4
    }
    while (i < points.length) { d(i) = Local.sqDist(points(i), centre); i += 1 }
  }
}
